"""Result records and generators as values, and what importing the package loads.

The records are named tuples: immutable, equal and hashed by value, and shown
field by field as ``Name(field=value, ...)``.  A ``Generator`` is not a
tuple, so a bracket tree, whose inner nodes are pairs, can hold generators as
leaves.  Importing the package and its CLI loads neither ``dataclasses`` (and
the ``inspect`` it pulls in) nor ``typing`` nor ``string``, and ``random``
waits for the identity rows that draw samples: each CLI call pays the import.
"""

import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from lietorsion import (CokernelStructure, ExactnessReport, FreenessReport, Generator,
                        MetabelianTorsionReport, SNFResult, SummandReport, TorsionReport,
                        normal_form, unit_alphabet)
from lietorsion.charp import PBWElement
from lietorsion.elements import tree_degree

SRC = Path(__file__).resolve().parents[1] / "src"

# every public record with its fields, in order
RECORDS = [
    (SNFResult, ["divisors"]),
    (CokernelStructure, ["free_rank", "torsion"]),
    (ExactnessReport, ["c", "degree_cut", "rank_metabelian", "rank_mixed", "rank_sym",
                       "mu_injective", "kappa_surjective", "image_equals_kernel"]),
    (TorsionReport, ["prime", "degree", "lie_power_rank", "cokernel", "theorem_count",
                     "all_order_p", "independent", "spanning", "torsion_all_p",
                     "integrality_passed", "theorem_checked"]),
    (MetabelianTorsionReport, ["prime", "degree", "lie_torsion", "metabelian_torsion",
                               "ranks_agree", "theta_matches", "units"]),
    (FreenessReport, ["prime", "max_degree", "dimensions", "torsion_found",
                      "all_torsion_free", "nonvacuous"]),
    (PBWElement, ["factors"]),
    (SummandReport, ["p", "dim", "dim_tensor", "class_sizes", "dim_w", "dim_ker_alpha",
                     "dim_im_beta", "dim_bp", "sigma_dims", "sigma_injective",
                     "sigma_in_filtration", "w_in_kernel", "kernel_is_w", "splits_tensor",
                     "summands_independent", "beta_alpha_identity", "kp_zero_inside"]),
]
IDS = [cls.__name__ for cls, _ in RECORDS]


def sample(fields, shift=0):
    return {f: (k + shift,) for k, f in enumerate(fields)}


def test_record_repr_examples():
    assert repr(CokernelStructure(1, (3,))) == "CokernelStructure(free_rank=1, torsion=(3,))"
    assert repr(SNFResult((1, 2, 6))) == "SNFResult(divisors=(1, 2, 6))"
    assert repr(PBWElement(((0,), (0, 1)))) == "PBWElement(factors=((0,), (0, 1)))"


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
def test_record_repr_lists_every_field_in_order(cls, fields):
    values = sample(fields)
    shown = ", ".join(f"{f}={v!r}" for f, v in values.items())
    assert repr(cls(**values)) == f"{cls.__name__}({shown})"
    assert repr(cls(*values.values())) == repr(cls(**values))


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
def test_record_fields_are_read_only(cls, fields):
    record = cls(**sample(fields))
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(record, f, 0)
    with pytest.raises(AttributeError):
        record.extra = 0
    assert record == cls(**sample(fields))


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
def test_equal_records_hash_equal(cls, fields):
    a, b = cls(**sample(fields)), cls(**sample(fields))
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != cls(**sample(fields, shift=1))


def test_record_properties():
    assert SNFResult((1, 2, 6)).rank == 3
    assert PBWElement(((0,), (0,), (0, 1))).type == (2, 1, 0, 0)
    flags = dict(mu_injective=True, kappa_surjective=True, image_equals_kernel=True)
    exact = ExactnessReport(3, 6, 1, 2, 3, **flags)
    assert exact.passed
    assert not exact._replace(kappa_surjective=False).passed
    unchecked = TorsionReport(3, 8, 10, CokernelStructure(10, ()), 0,
                              *[False] * 5, theorem_checked=False)
    assert unchecked.passed
    assert not unchecked._replace(theorem_checked=True).passed
    assert MetabelianTorsionReport(3, 8, (), (), True, True, ()).passed
    assert not FreenessReport(3, 9, (), ((3,),), False, True).passed


def test_generator_is_an_immutable_value():
    g = Generator("u", [2, 1])
    assert repr(g) == "u" and g.multidegree == (2, 1) and g.weight == 3
    assert g == Generator("u", (2, 1)) and hash(g) == hash(Generator("u", (2, 1)))
    assert g != Generator("u", (1, 2)) and g != Generator("v", (2, 1))
    assert g != ("u", (2, 1))
    for attr in ("name", "multidegree", "extra"):
        with pytest.raises(AttributeError):
            setattr(g, attr, "x")
    with pytest.raises(AttributeError):
        del g.name
    copy = pickle.loads(pickle.dumps(g))
    assert copy == g and copy.multidegree == (2, 1)
    assert Generator("x").multidegree == (1,)


def test_bracket_tree_with_generator_leaves():
    ab = unit_alphabet(2)
    x, y = ab.generators
    tree = ((y, x), x)
    assert tree_degree(tree) == 3
    assert normal_form(ab, tree) == normal_form(ab, ((1, 0), 0))
    assert normal_form(ab, tree) == -normal_form(ab, ((0, 1), 0))
    assert normal_form(ab, (x, x)).is_zero()


def test_import_loads_neither_dataclasses_nor_inspect():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import lietorsion, lietorsion.cli; "
            "print(sorted(m for m in ('dataclasses', 'inspect', 'typing', 'datetime', "
            "'fractions', 'decimal', 'random', 'string', 'argparse', 'shutil', 'gettext', "
            "'locale') if m in sys.modules))")
    done = subprocess.run([sys.executable, "-S", "-s", "-c", code, str(SRC)],
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"
