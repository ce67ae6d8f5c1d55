"""Every value type refuses attribute assignment and deletion after construction."""

from fractions import Fraction

import pytest

from weightfilt.document import Document
from weightfilt.exact import (
    GaussianRational,
    Immutable,
    Matrix,
    PositivityCertificate,
    QuotientPresentation,
    Subspace,
    is_positive_definite,
)
from weightfilt.filtration import (
    Filtration,
    FiltrationCompatibility,
    IndexLattice,
    MultiFiltration,
    SubobjectCompatibility,
    compatible_filtrations,
    compatible_subobjects,
)
from weightfilt.fixtures import TensorJordanFixture, VkFixture
from weightfilt.lefschetz import (
    GradedBilinearStructure,
    GradedSpace,
    PolarizationReport,
    RationalHodgeStructure,
    Sl2Action,
    polarization_check,
    sl2_complete,
)
from weightfilt.monodromy import (
    GradedSumReport,
    IteratedWeightReport,
    NilpotentOperator,
    NonexistenceCertificate,
    RelativeMonodromyResult,
    graded_sum_decomposition,
    mf_property,
)
from weightfilt.nearby import (
    DoubleComplexModel,
    MonodromicModule,
    NilsIsoReport,
    NilssonExtension,
    NilssonFactor,
    TwoPathReport,
    nils_iso_check,
    two_path_compare,
)
from weightfilt.rees import (
    FlatnessCertificate,
    RegularityCertificate,
    is_flat,
    is_regular_sequence,
    rees_of,
)

J2 = Matrix([[0, 0], [1, 0]])
HALF = Fraction(-1, 2)


def _module():
    return MonodromicModule([HALF], [J2])


def _two_variable_module():
    return MonodromicModule([HALF, HALF], [J2, Matrix.zero(2, 2)])


def _quotient():
    return QuotientPresentation(Subspace.full(2), Subspace.zero(2))


def _multifiltration():
    return MultiFiltration([Filtration.trivial(2)])


def _hodge_structure():
    one, i = GaussianRational(1, 0), GaussianRational(0, 1)
    return RationalHodgeStructure(
        1, {(1, 0): Subspace.span([(one, i)], 2), (0, 1): Subspace.span([(one, -i)], 2)}
    )


FACTORIES = {
    GaussianRational: lambda: GaussianRational(1, 2),
    Matrix: lambda: Matrix([[1, 2]]),
    Subspace: lambda: Subspace.full(2),
    QuotientPresentation: _quotient,
    PositivityCertificate: lambda: is_positive_definite(Matrix([[1]])),
    IndexLattice: lambda: IndexLattice([Fraction(1, 2)]),
    Filtration: lambda: Filtration.trivial(2),
    MultiFiltration: _multifiltration,
    SubobjectCompatibility: lambda: compatible_subobjects([Subspace.full(2)]),
    FiltrationCompatibility: lambda: compatible_filtrations(_multifiltration()),
    NilpotentOperator: lambda: NilpotentOperator(J2),
    NonexistenceCertificate: lambda: NonexistenceCertificate(0, "containment", None, "escape"),
    RelativeMonodromyResult: lambda: RelativeMonodromyResult(True, Filtration.trivial(2), None),
    IteratedWeightReport: lambda: mf_property([J2]),
    GradedSumReport: lambda: graded_sum_decomposition([J2]),
    GradedSpace: lambda: VkFixture(1).graded_space(),
    GradedBilinearStructure: lambda: VkFixture(1).structure(),
    Sl2Action: lambda: sl2_complete(VkFixture(1).structure(), 0),
    PolarizationReport: lambda: polarization_check(VkFixture(1).structure()),
    RationalHodgeStructure: _hodge_structure,
    MonodromicModule: _module,
    NilssonFactor: lambda: NilssonFactor(HALF, 1),
    NilssonExtension: lambda: NilssonExtension(_module(), [1]),
    NilsIsoReport: lambda: nils_iso_check(_module(), [1]),
    TwoPathReport: lambda: two_path_compare(_two_variable_module(), [1, 0]),
    DoubleComplexModel: lambda: DoubleComplexModel(_two_variable_module(), [1, 0]),
    RegularityCertificate: lambda: is_regular_sequence(rees_of(_multifiltration()), [0]),
    FlatnessCertificate: lambda: is_flat(rees_of(_multifiltration())),
    VkFixture: lambda: VkFixture(1),
    TensorJordanFixture: lambda: TensorJordanFixture((2,)),
    Document: lambda: Document("fixture-info", {"name": "V1"}),
}


@pytest.mark.parametrize("cls", FACTORIES, ids=lambda cls: cls.__name__)
def test_value_types_are_immutable(cls):
    obj = FACTORIES[cls]()
    assert type(obj) is cls
    name = cls.__slots__[0]
    before = getattr(obj, name)
    with pytest.raises(AttributeError, match="is immutable"):
        setattr(obj, name, None)
    with pytest.raises(AttributeError, match="is immutable"):
        delattr(obj, name)
    assert getattr(obj, name) is before


def test_every_value_type_is_covered():
    assert set(FACTORIES) == set(Immutable.__subclasses__())
