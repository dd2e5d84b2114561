"""The fakes' forwarding contract: the route a fake takes is the one its class names."""

import numpy as np
import pytest

from bornexact import support_report
from fakes import Counting, MagneticTensor, NanAtTransfer, Shifted, TensorView, View

Q3 = np.array([[1.5, 0.2, 0.1], [-0.3, 0.4, 0.0]])


def test_views_copy_metadata_and_forward(reference_medium):
    # the reference medium's alpha, slab and z_constant all differ from
    # MediumProfile's defaults; only the tensor view hides the scalar form
    for fake in (View(reference_medium), TensorView(reference_medium)):
        assert (fake.alpha, fake.slab, fake.z_constant) == (1.0, (-2.0, 2.0), True)
        for got, ref in zip(fake.eta3_tensors(Q3), reference_medium.eta3_tensors(Q3)):
            assert np.array_equal(got, ref)
    assert np.array_equal(View(reference_medium).scalar_eta3(Q3),
                          reference_medium.scalar_eta3(Q3))
    assert TensorView(reference_medium).scalar_eta3(Q3) is None


def test_tensor_views_report_no_scalar_form(control_medium):
    fakes = (TensorView(control_medium), Counting(TensorView(control_medium)),
             NanAtTransfer(control_medium, Q3[0, :2]), Shifted(control_medium, 0.7),
             MagneticTensor(control_medium))
    assert control_medium.scalar_eta3(Q3) is not None
    assert all(fake.scalar_eta3(Q3) is None for fake in fakes)
    with pytest.raises(NotImplementedError):
        MagneticTensor(control_medium).recip33_ft3(Q3, "eps")


def test_counting_counts_every_transform_point(control_medium):
    # two points per call; a scalar form read through a tensor view is none
    for base, scalar_points in ((control_medium, 2), (TensorView(control_medium), 0)):
        medium = Counting(base)
        medium.scalar_eta3(Q3)
        medium.eta3_tensors(Q3)
        medium.recip33_ft3(Q3, "eps")
        assert medium.points == scalar_points + 4


def test_transformed_views_give_no_position_space(control_medium):
    # neither passes on its base's eta, support lines or sampling box
    for fake in (Shifted(control_medium, 0.7), MagneticTensor(control_medium)):
        for read in (lambda: fake.eval_eta(Q3), fake.sampling_box,
                     lambda: next(fake._support_lines(*Q3.T)), lambda: support_report(fake, 1.0)):
            with pytest.raises(NotImplementedError):
                read()
