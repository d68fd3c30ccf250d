"""
Frozen reference data for the two bundled worked examples.

Each example records its full chain table (labels, edge kinds, markings,
end permutation) and its expansion, as plain data.  The tables were
transcribed from the source worked examples and then cross-corrected
against the executable definitions: every marking cell is forced by the
marking conditions, every coefficient by the chain sum, and the
corrections are pinned by the classical polynomial oracle at Q = 0 and by
commutativity of double expansions (see tests/test_marking_rule.py and
tests/test_chain_completeness.py for the differences against the original
tables).
"""

from __future__ import annotations

from dataclasses import dataclass

from .expansion import Expansion, _fold
from .permutations import Permutation
from .qbg import QMonomial, pack_monomial


@dataclass(frozen=True)
class WorkedExample:
    name: str
    w: str
    k: int
    p: int
    # rows: (labels, kind string like "BQ", markings (tuples of labels), end)
    rows: tuple
    # expansion terms: (coefficient, Q-variable exponent pairs, end permutation)
    terms: tuple
    published_rows: int  # row count in the original table
    expansion_text: str  # canonical rendering of `terms`


EX1 = WorkedExample(
    name="ex1",
    w="321",
    k=2,
    p=2,
    rows=(
        ((), "", (), "321"),
        (((1, 4),), "B", (), "4213"),
        (((1, 4), (2, 4)), "BB", (((1, 4), (2, 4)),), "4312"),
        (((1, 4), (2, 4), (1, 3)), "BBQ", (((1, 4), (2, 4)),), "1342"),
        (((1, 4), (2, 4), (1, 3), (2, 3)), "BBQB", (((1, 4), (2, 4)),), "1432"),
        (((1, 4), (2, 4), (2, 3)), "BBQ", (((1, 4), (2, 4)),), "4132"),
        (((1, 4), (1, 3)), "BQ", (), "1243"),
        (((1, 4), (1, 3), (2, 3)), "BQB", (((1, 4), (2, 3)),), "1423"),
        (((1, 4), (2, 3)), "BQ", (((1, 4), (2, 3)),), "4123"),
        # the original table stops listing here: the next two chains are
        # absent from it although they satisfy the chain conditions
        (((2, 4),), "B", (), "3412"),
        (((2, 4), (2, 3)), "BQ", (), "3142"),
        (((1, 3),), "Q", (), "1"),
        (((1, 3), (2, 3)), "QB", (((1, 3), (2, 3)),), "132"),
        (((2, 3),), "Q", (), "312"),
    ),
    terms=(
        (1, (), "4312"),
        (-1, ((1, 1), (2, 1)), "1342"),
        (1, ((1, 1), (2, 1)), "1432"),
        (-1, ((2, 1),), "4132"),
        (-1, ((1, 1), (2, 1)), "1423"),
        (1, ((2, 1),), "4123"),
        (1, ((1, 1), (2, 1)), "132"),
    ),
    published_rows=12,
    expansion_text=(
        "Q1*Q2*G[132] - Q1*Q2*G[1342] - Q1*Q2*G[1423] + Q1*Q2*G[1432]"
        " + Q2*G[4123] - Q2*G[4132] + G[4312]"
    ),
)


EX2 = WorkedExample(
    name="ex2",
    w="32514",
    k=3,
    p=2,
    rows=(
        ((), "", (), "32514"),
        (((3, 6),), "B", (), "326145"),
        (((3, 6), (1, 5)), "BB", (((3, 6), (1, 5)),), "426135"),
        (((3, 6), (1, 5), (2, 5)), "BBB",
         (((3, 6), (1, 5)), ((3, 6), (2, 5))), "436125"),
        (((3, 6), (1, 5), (2, 5), (3, 4)), "BBBQ",
         (((3, 6), (1, 5)), ((3, 6), (2, 5))), "431625"),
        (((3, 6), (1, 5), (3, 4)), "BBQ", (((3, 6), (1, 5)),), "421635"),
        (((3, 6), (2, 5)), "BB", (((3, 6), (2, 5)),), "346125"),
        (((3, 6), (2, 5), (3, 4)), "BBQ", (((3, 6), (2, 5)),), "341625"),
        (((3, 6), (3, 4)), "BQ", (), "321645"),
        (((1, 5),), "B", (), "42513"),
        (((1, 5), (2, 5)), "BB", (((1, 5), (2, 5)),), "43512"),
        (((1, 5), (2, 5), (3, 4)), "BBQ",
         (((1, 5), (2, 5)), ((1, 5), (3, 4))), "43152"),
        # in the next four rows and in row 19 the original table also lists
        # a second marking violating the successor-order condition; the
        # single markings below are the ones the conditions admit
        (((1, 5), (2, 5), (3, 4), (1, 4)), "BBQB", (((1, 5), (3, 4)),), "53142"),
        (((1, 5), (2, 5), (3, 4), (1, 4), (2, 4)), "BBQBB",
         (((1, 5), (3, 4)),), "54132"),
        (((1, 5), (2, 5), (3, 4), (2, 4)), "BBQB", (((1, 5), (3, 4)),), "45132"),
        (((1, 5), (3, 4)), "BQ", (((1, 5), (3, 4)),), "42153"),
        (((1, 5), (3, 4), (1, 4)), "BQB", (((1, 5), (3, 4)),), "52143"),
        (((1, 5), (3, 4), (1, 4), (2, 4)), "BQBB", (((1, 5), (3, 4)),), "54123"),
        (((1, 5), (3, 4), (2, 4)), "BQB", (((1, 5), (3, 4)),), "45123"),
        (((2, 5),), "B", (), "34512"),
        (((2, 5), (3, 4)), "BQ", (((2, 5), (3, 4)),), "34152"),
        (((2, 5), (3, 4), (2, 4)), "BQB", (((2, 5), (3, 4)),), "35142"),
        (((3, 4),), "Q", (), "32154"),
        (((3, 4), (1, 4)), "QB", (((3, 4), (1, 4)),), "52134"),
        (((3, 4), (1, 4), (2, 4)), "QBB", (((3, 4), (1, 4)),), "53124"),
        (((3, 4), (2, 4)), "QB", (((3, 4), (2, 4)),), "35124"),
    ),
    terms=(
        (1, (), "426135"),
        (-2, (), "436125"),
        (2, ((3, 1),), "431625"),
        (-1, ((3, 1),), "421635"),
        (1, (), "346125"),
        (-1, ((3, 1),), "341625"),
        (1, (), "43512"),
        (-2, ((3, 1),), "43152"),
        (1, ((3, 1),), "53142"),
        (-1, ((3, 1),), "54132"),
        (1, ((3, 1),), "45132"),
        (1, ((3, 1),), "42153"),
        (-1, ((3, 1),), "52143"),
        (1, ((3, 1),), "54123"),
        (-1, ((3, 1),), "45123"),
        (1, ((3, 1),), "34152"),
        (-1, ((3, 1),), "35142"),
        (1, ((3, 1),), "52134"),
        (-1, ((3, 1),), "53124"),
        (1, ((3, 1),), "35124"),
    ),
    published_rows=26,
    expansion_text=(
        "Q3*G[34152] + Q3*G[35124] + Q3*G[42153] + Q3*G[52134] - Q3*G[341625]"
        " - Q3*G[35142] - Q3*G[421635] - 2*Q3*G[43152] - Q3*G[45123]"
        " - Q3*G[52143] - Q3*G[53124] + G[346125] + G[426135] + 2*Q3*G[431625]"
        " + G[43512] + Q3*G[45132] + Q3*G[53142] + Q3*G[54123] - 2*G[436125]"
        " - Q3*G[54132]"
    ),
)


# coefficients at which the original display disagrees with the executable
# definitions (original lists these five with coefficient doubled)
EX2_PUBLISHED_DOUBLED = ("53142", "54132", "45132", "54123", "45123")

# chains present in the enumeration but absent from the original 12-row table
EX1_UNLISTED_CHAINS = (((2, 4),), ((2, 4), (2, 3)))


def expected_expansion(ex: WorkedExample) -> Expansion:
    return _fold(
        (Permutation.from_one_line(perm), {pack_monomial(QMonomial.from_dict(dict(qexp))): coeff})
        for coeff, qexp, perm in ex.terms
    )


def expected_table(ex: WorkedExample) -> str:
    from .render import format_table_rows

    return format_table_rows(ex.w, ex.p, ex.rows)
