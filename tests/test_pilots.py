"""Pilot books: power constraint, local orthogonality, base structure."""

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
    col = Coloring(np.array([0, 1, 2, 1]), 3)
    book = build_pilot_book(col, beta=1.0, p0=1.0)
    assert book.training_length == 3 and book.n_user == 4
    energies = np.sum(np.abs(book.pilots) ** 2, axis=1)
    assert np.allclose(energies, 3.0, rtol=1e-12)  # length * beta * p0
    # different colors orthogonal, same color identical
    assert abs(np.vdot(book.pilots[0], book.pilots[1])) < 1e-10
    assert abs(np.vdot(book.pilots[0], book.pilots[2])) < 1e-10
    assert np.allclose(book.pilots[1], book.pilots[3], atol=1e-15)


def test_single_color_book():
    book = build_pilot_book(Coloring(np.array([0, 0]), 1), beta=np.array([1.0, 4.0]), p0=2.0)
    assert book.training_length == 1
    assert np.sum(np.abs(book.pilots[0]) ** 2) == pytest.approx(2.0, rel=1e-12)
    assert np.sum(np.abs(book.pilots[1]) ** 2) == pytest.approx(8.0, rel=1e-12)
    # same color: row 1 is a scalar multiple of row 0
    assert np.allclose(book.pilots[1], 2.0 * book.pilots[0], rtol=1e-12)


def test_zero_beta_silences_user():
    book = build_pilot_book(Coloring(np.array([0, 1]), 2), beta=np.array([0.0, 1.0]))
    assert np.all(book.pilots[0] == 0)


def test_parameter_validation():
    col = Coloring(np.array([0, 1]), 2)
    with pytest.raises(ParameterError):
        build_pilot_book(col, beta=-0.5)
    with pytest.raises(ParameterError):
        build_pilot_book(col, p0=0.0)
    with pytest.raises(ConsistencyError):
        build_pilot_book(col, beta=np.array([1.0, 1.0, 1.0]))


def test_energy_property_random_instances():
    rng = np.random.default_rng(7)
    for _ in range(60):
        k = int(rng.integers(1, 30))
        num = int(rng.integers(1, k + 1))
        # every color used at least once, remaining users colored at random
        colors = np.concatenate([np.arange(num), rng.integers(0, num, size=k - num)])
        col = Coloring(rng.permutation(colors), num)
        beta = rng.uniform(0.0, 2.0, size=k)
        p0 = float(rng.uniform(0.1, 3.0))
        book = build_pilot_book(col, beta, p0)
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
        book = build_pilot_book(col, beta=float(rng.uniform(0.2, 2.0)))
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
        colored = build_pilot_book(col, float(rng.uniform(0.2, 2.0)), float(rng.uniform(0.5, 100.0)))
        length = col.num_colors
        free = rng.standard_normal((k, length)) + 1j * rng.standard_normal((k, length))
        books = [(colored, None), (PilotBook(free, np.ones(k), 1.0, None), None)]
        u = int(rng.integers(k))
        others = np.flatnonzero(col.colors != col.colors[u])
        if others.size:
            # with a scalar beta every user of m's color sends m's row
            m = int(rng.choice(others))
            row = colored.pilots[m]
            peers = np.flatnonzero(col.colors == col.colors[m])
            shares = bool(np.isin(peers, graph.neighbors[u]).any())
            energy = float(np.max(np.sum(np.abs(colored.pilots) ** 2, axis=1)))
            norm = float(np.linalg.norm(row))
            for factor in (0.5, 2.0):
                x = colored.pilots.copy()
                x[u] += factor * tol * energy / norm**2 * row
                books.append((PilotBook(x, colored.beta, colored.p0, None), factor < 1 or not shares))
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
    same = build_pilot_book(Coloring(np.array([0, 0]), 1))
    assert not check_local_orthogonality(same, assoc)


def test_tolerance_boundary():
    pilots = np.array([[1.0 + 0j, 0.0], [1e-8, 1.0]])
    book = PilotBook(pilots, np.ones(2), 1.0, None)
    lay = generate_layout(1, 2, 10.0, seed=0)
    assoc = sparsify(lay, 20.0)
    assert not check_local_orthogonality(book, assoc)  # cross 1e-8 > 1e-10
    tiny = np.array([[1.0 + 0j, 0.0], [1e-12, 1.0]])
    assert check_local_orthogonality(PilotBook(tiny, np.ones(2), 1.0, None), assoc)


def test_tolerance_scales_with_pilot_energy():
    # a valid DSATUR book stays valid at any power scale
    lay = generate_layout(300, 300, 100.0, seed=0)
    assoc = sparsify(lay, 10.0)
    col = dsatur(build_conflict_graph(assoc))
    for p0 in (1.0, 1e2, 1e4):
        assert check_local_orthogonality(build_pilot_book(col, p0=p0), assoc)


def test_size_mismatch():
    lay = generate_layout(1, 3, 10.0, seed=0)
    assoc = sparsify(lay, 20.0)
    book = build_pilot_book(Coloring(np.array([0, 1]), 2))
    with pytest.raises(ConsistencyError):
        check_local_orthogonality(book, assoc)
