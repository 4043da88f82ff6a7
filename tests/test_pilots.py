"""Pilot books: training energy, local orthogonality, base structure.

``build_pilot_book`` gives every user energy length. Per-user energies are
tested on hand-scaled books, PilotBook(scale[:, None] * base.pilots, colors),
which keep the color contract for any complex scale per user."""

import numpy as np
import pytest

import lotrain.pilots as pilots_mod
from lotrain import (
    Coloring,
    ConsistencyError,
    ParameterError,
    PilotBook,
    build_conflict_graph,
    build_pilot_book,
    check_local_orthogonality,
    data_power_coefficients,
    dft_rows,
    dsatur,
    generate_layout,
    refine,
    sparsify,
)


def test_dft_rows_orthonormal():
    for n in (1, 2, 3, 5, 8, 17):
        rows = dft_rows(n)
        gram = rows @ rows.conj().T
        assert np.max(np.abs(gram - np.eye(n))) < 1e-12


def test_book_energy_and_cross_color():
    col = Coloring(np.array([0, 1, 2, 1]))
    book = build_pilot_book(col)
    assert book.training_length == 3 and book.n_user == 4
    energies = np.sum(np.abs(book.pilots) ** 2, axis=1)
    assert np.allclose(energies, 3.0, rtol=1e-12)  # length
    # different colors orthogonal, same color identical
    assert abs(np.vdot(book.pilots[0], book.pilots[1])) < 1e-10
    assert abs(np.vdot(book.pilots[0], book.pilots[2])) < 1e-10
    assert np.allclose(book.pilots[1], book.pilots[3], atol=1e-15)


def test_single_color_book():
    base = build_pilot_book(Coloring(np.array([0, 0])))
    book = PilotBook(np.sqrt([2.0, 8.0])[:, None] * base.pilots, base.color_of)
    assert book.training_length == 1
    assert np.sum(np.abs(book.pilots[0]) ** 2) == pytest.approx(2.0, rel=1e-12)
    assert np.sum(np.abs(book.pilots[1]) ** 2) == pytest.approx(8.0, rel=1e-12)
    # same color: row 1 is a scalar multiple of row 0
    assert np.allclose(book.pilots[1], 2.0 * book.pilots[0], rtol=1e-12)


def test_zero_beta_silences_user():
    base = build_pilot_book(Coloring(np.array([0, 1])))
    book = PilotBook(np.array([0.0, 1.0])[:, None] * base.pilots, base.color_of)
    assert np.all(book.pilots[0] == 0)
    # the silent user keeps its color; its color's row is zero, its peer's intact
    assert np.all(book.rows[0] == 0) and np.allclose(book.rows[1], dft_rows(2)[1], rtol=1e-12)


def test_parameter_validation():
    # the data-phase coefficients beta' are the only per-user powers a caller
    # passes; a negative one, or a vector of the wrong length, is refused
    with pytest.raises(ParameterError):
        data_power_coefficients(-0.5, 0.5, 2)
    with pytest.raises(ConsistencyError):
        data_power_coefficients(np.array([1.0, 1.0, 1.0]), 0.5, 2)


def test_energy_property_random_instances():
    rng = np.random.default_rng(7)
    for _ in range(60):
        k = int(rng.integers(1, 30))
        num = int(rng.integers(1, k + 1))
        # every color used at least once, remaining users colored at random
        colors = np.concatenate([np.arange(num), rng.integers(0, num, size=k - num)])
        col = Coloring(rng.permutation(colors))
        beta = rng.uniform(0.0, 2.0, size=k)
        p0 = float(rng.uniform(0.1, 3.0))
        base = build_pilot_book(col)
        assert np.allclose(np.sum(np.abs(base.pilots) ** 2, axis=1), num, rtol=1e-12)
        book = PilotBook(np.sqrt(beta * p0)[:, None] * base.pilots, col.colors)
        want = num * beta * p0
        got = np.sum(np.abs(book.pilots) ** 2, axis=1)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def test_local_orthogonality_end_to_end():
    rng = np.random.default_rng(13)
    for _ in range(80):
        lay = generate_layout(int(rng.integers(1, 10)), int(rng.integers(2, 25)), 50.0,
                              seed=int(rng.integers(1 << 31)))
        assoc = sparsify(lay, float(rng.uniform(3, 25)))
        col = dsatur(build_conflict_graph(assoc))
        book = PilotBook(np.sqrt(rng.uniform(0.2, 2.0)) * build_pilot_book(col).pilots, col.colors)
        assert check_local_orthogonality(book, assoc)
        # refinement keeps one user per color at each RRH, so it stays orthogonal
        assert check_local_orthogonality(book, refine(assoc, lay, col))


def local_orthogonality_loop(book, assoc, tol=1e-10) -> bool:
    """The per-RRH Gram check that check_local_orthogonality replaced by one
    test along the conflict edges, kept as its oracle."""
    limit = tol * float(np.max(np.sum(np.abs(book.pilots) ** 2, axis=1), initial=0.0))
    for users in assoc.served_users:
        if len(users) < 2:
            continue
        x = book.pilots[list(users)]
        gram = x @ x.conj().T
        np.fill_diagonal(gram, 0.0)
        if np.max(np.abs(gram)) > limit:
            return False
    return True


def test_local_orthogonality_matches_the_per_rrh_loop():
    # colored and free-form books, and colored books perturbed so that user u
    # meets every user of m's color at a cross term of 0.5x or 2x the limit:
    # the verdict flips only at 2x, and only if u shares an RRH with one
    rng = np.random.default_rng(29)
    tol = pilots_mod._ORTHOGONALITY_TOL
    verdicts = []
    for _ in range(120):
        k = int(rng.integers(2, 30))
        lay = generate_layout(int(rng.integers(1, 12)), k, 50.0, seed=int(rng.integers(1 << 31)))
        assoc = sparsify(lay, float(rng.uniform(3, 25)))
        graph = build_conflict_graph(assoc)
        col = dsatur(graph)
        power = rng.uniform(0.2, 2.0) * rng.uniform(0.5, 100.0)
        colored = PilotBook(np.sqrt(power) * build_pilot_book(col).pilots, col.colors)
        length = col.num_colors
        free = rng.standard_normal((k, length)) + 1j * rng.standard_normal((k, length))
        books = [(colored, None), (PilotBook(free), None)]
        u = int(rng.integers(k))
        others = np.flatnonzero(col.colors != col.colors[u])
        if others.size:
            # at one power for all users, every user of m's color sends m's row
            m = int(rng.choice(others))
            row = colored.pilots[m]
            peers = np.flatnonzero(col.colors == col.colors[m])
            shares = bool(np.isin(peers, graph.neighbors[u]).any())
            energy = float(np.max(np.sum(np.abs(colored.pilots) ** 2, axis=1)))
            norm = float(np.linalg.norm(row))
            for factor in (0.5, 2.0):
                x = colored.pilots.copy()
                x[u] += factor * tol * energy / norm**2 * row
                books.append((PilotBook(x), factor < 1 or not shares))
        for book, want in books:
            got = check_local_orthogonality(book, assoc)
            assert got == local_orthogonality_loop(book, assoc, tol)
            assert want is None or got == want
            verdicts.append(got)
    assert 0 < sum(verdicts) < len(verdicts)


def test_local_orthogonality_detects_conflicts():
    # both users at one RRH with the same pilot row
    lay = generate_layout(1, 2, 10.0, seed=0)
    assoc = sparsify(lay, 20.0)
    assert assoc.served_users == ((0, 1),)
    same = build_pilot_book(Coloring(np.array([0, 0])))
    assert not check_local_orthogonality(same, assoc)


def test_tolerance_boundary():
    pilots = np.array([[1.0 + 0j, 0.0], [1e-8, 1.0]])
    book = PilotBook(pilots)
    lay = generate_layout(1, 2, 10.0, seed=0)
    assoc = sparsify(lay, 20.0)
    assert not check_local_orthogonality(book, assoc)  # cross 1e-8 > 1e-10
    tiny = np.array([[1.0 + 0j, 0.0], [1e-12, 1.0]])
    assert check_local_orthogonality(PilotBook(tiny), assoc)


def test_tolerance_scales_with_pilot_energy():
    # a valid DSATUR book stays valid at any power scale
    lay = generate_layout(300, 300, 100.0, seed=0)
    assoc = sparsify(lay, 10.0)
    col = dsatur(build_conflict_graph(assoc))
    book = build_pilot_book(col)
    for p0 in (1.0, 1e2, 1e4):
        assert check_local_orthogonality(PilotBook(np.sqrt(p0) * book.pilots, col.colors), assoc)


def test_size_mismatch():
    lay = generate_layout(1, 3, 10.0, seed=0)
    assoc = sparsify(lay, 20.0)
    book = build_pilot_book(Coloring(np.array([0, 1])))
    with pytest.raises(ConsistencyError):
        check_local_orthogonality(book, assoc)


@pytest.mark.parametrize("factor", [0.5, 2.0])
def test_color_contract_names_the_user_off_its_row_or_the_colors_that_correlate(factor):
    # users 0 and 1 share color 0, user 2 has color 1; user 1, the strongest,
    # gives color 0 its row and the limit, and a perturbation at 0.5x the
    # limit passes while 2x raises
    rows = dft_rows(2)
    limit = pilots_mod._ORTHOGONALITY_TOL * 4.0
    x = np.array([rows[0], 2j * rows[0], rows[1]])
    colors = np.array([0, 0, 1])
    book = PilotBook(x, colors)
    assert np.allclose(book.rows, [1j * rows[0], rows[1]]) and np.allclose(book.coef, [-1j, 2.0, 1.0])
    off, crossed = x.copy(), x.copy()
    off[0] += np.sqrt(factor * limit) * rows[1]  # energy factor * limit off color 0's row
    crossed[2] += factor * limit / 2 * rows[0]  # correlates with user 1's row at factor * limit
    for pilots, named in ((off, "user 0's pilot"), (crossed, "the rows of colors 0 and 1 correlate")):
        if factor < 1:
            PilotBook(pilots, colors)
        else:
            with pytest.raises(ConsistencyError, match=named):
                PilotBook(pilots, colors)
    # a free-form book of the same rows is not checked
    assert PilotBook(off).rows is None
    for bad in (np.array([0, 1]), np.array([0, -1, 1])):
        with pytest.raises(ConsistencyError, match="color_of"):
            PilotBook(x, bad)
