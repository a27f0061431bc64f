"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Desk scale is the ten-site chain with three levels per site (dimension
59049). The heavyweight trajectories are shared through module fixtures.
Criterion 13 is implemented exactly as stated and is expected to fail: the
J0 effective model carries per-period corrections of order (J/nu)^2 that
accumulate over ten periods at the quoted drive parameters (see the
propagator test suite for the high-frequency regime where the oracle
holds). Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math

import numpy as np
import pytest

from quenchsim import (
    AnharmonicityProfile,
    CouplingProfile,
    DriveSpec,
    Protocol,
    Segment,
    TransverseProfile,
    build_basis,
    build_hopping,
    build_number_weighted,
    build_onsite_anharmonicity,
    build_transverse,
    dominant_frequency,
    effective_coupling,
    evolve_driven,
    evolve_static,
    fidelity,
    half_chain_entropy,
    parse_product_state,
    reverse_of,
    run_protocol,
    sector_spectrum,
    site_populations,
    total_number,
)
from quenchsim.propagator import _Krylov
from quenchsim.quenchlab import TABLE_S1_U_MHZ, load_config, preset, run_experiment

L = 10
PAGE_VALUE = (10 * math.log(2) - 1) / 2
PSI = {
    "psi1": "0001001000",
    "psi2": "0000110000",
    "psi3": "0001111000",
    "psi4": "++++++++++",
    "psi5": "0101010101",
}


def report(num, description, passed, detail=""):
    tag = "PASS" if passed else "FAIL"
    print(f"[criterion {num:2d}] {tag}: {description}" + (f" ({detail})" if detail else ""))
    assert passed, f"criterion {num}: {description} ({detail})"


def table_profiles(J_mhz, sites=L):
    return (
        CouplingProfile.from_mhz([J_mhz] * (sites - 1)),
        AnharmonicityProfile.from_mhz([TABLE_S1_U_MHZ[j % 10] for j in range(sites)]),
    )


def two_forward_fidelity(tokens, J_mhz, t_ns):
    """Overlap of states evolved under hopping +- interaction (echo picture)."""
    # both Hamiltonians conserve N: each '+' adds 0 or 1 to the '1' count
    ones, plus = tokens.count("1"), tokens.count("+")
    basis = build_basis(L, 3, sector=range(ones, ones + plus + 1))
    cp, up = table_profiles(J_mhz)
    H0 = build_hopping(basis, cp)
    HU = build_onsite_anharmonicity(basis, up)
    psi0 = parse_product_state(tokens, basis)
    plus = evolve_static(H0 + HU, psi0, t_ns)
    minus = evolve_static(H0 + (-1.0) * HU, psi0, t_ns)
    return fidelity(plus, minus)


@pytest.fixture(scope="module")
def fig8c_p2_series():
    """P2 total versus time for the fig8c preset, at both anharmonicities."""
    out = {}
    for u_mhz in (240.0, 480.0):
        cfg = preset("fig8c").with_overrides({"anharmonicity_mhz": str(u_mhz)})
        records = run_experiment(cfg)
        times = np.array([r.time_ns for r in records])
        p2 = np.array([r.level_total(2) for r in records])
        out[u_mhz] = (times, p2, cfg.dt_ns)
    return out


def test_01_effective_coupling_anchors():
    fwd = effective_coupling(10.8, 213.6, 120.0)
    bwd = effective_coupling(10.8, 400.0, 120.0)
    ok = abs(fwd - 3.8) <= 0.05 and abs(bwd - (-3.8)) <= 0.05
    report(1, "period-averaged couplings are +-3.8 MHz", ok,
           f"forward {fwd:+.4f}, backward {bwd:+.4f}")


def test_02_sector_dimension():
    dim = build_basis(10, 6, sector=5).dim
    report(2, "five-particle six-level sector has 2002 states", dim == 2002, f"dim {dim}")


def test_03_p2_oscillates_at_anharmonicity(fig8c_p2_series):
    times, p2, dt = fig8c_p2_series[240.0]
    assert times[-1] >= 100.0 and dt <= 0.5
    # The line carries hopping sidebands of a few bond energies, so the peak
    # is located at a resolution coarse enough to merge them: 24 ns segments
    # (about six line periods). The segment bin width is the honest error.
    res = dominant_frequency(p2, dt, segment_ns=24.0)
    ok = res is not None and abs(res.frequency_mhz - 240.0) <= res.resolution_mhz
    report(3, "transitional P2 oscillates at the anharmonicity frequency", ok,
           f"peak {res.frequency_mhz:.1f} MHz, resolution {res.resolution_mhz:.1f} MHz")


def test_04_quarter_scaling(fig8c_p2_series):
    means = {}
    for u_mhz, (times, p2, _) in fig8c_p2_series.items():
        sel = times >= 25.0
        means[u_mhz] = p2[sel].mean()
    ratio = means[240.0] / means[480.0]
    ok = abs(ratio - 4.0) <= 0.8
    report(4, "doubling the anharmonicity quarters the post-transient P2", ok,
           f"ratio {ratio:.3f}")


def test_05_reversal_return_populations():
    targets = {"psi1": 0.994, "psi2": 0.992, "psi3": 0.974}
    got = {}
    for name, target in targets.items():
        tokens = PSI[name]
        cfg = preset("fig3-inset").with_overrides({"initial": tokens})
        records = run_experiment(cfg)
        final = records[-1]
        excited = [j for j, c in enumerate(tokens) if c == "1"]
        got[name] = float(np.mean([final.populations[j, 1] for j in excited]))
    ok = all(abs(got[n] - targets[n]) <= 0.02 for n in targets)
    report(5, "end-of-protocol first-excited returns match the quoted values", ok,
           ", ".join(f"{n} {got[n]:.4f} (target {targets[n]})" for n in targets))


def test_06_state_ordering_at_fixed_time():
    t = 60.0  # inside the decay window, before the first revival
    f1 = two_forward_fidelity(PSI["psi1"], 16.0, t)
    f3 = two_forward_fidelity(PSI["psi3"], 16.0, t)
    f4 = two_forward_fidelity(PSI["psi4"], 16.0, t)
    ok = f1 > f3 > f4
    report(6, "fidelity decays faster with more filled particles", ok,
           f"F1 {f1:.4f} > F3 {f3:.4f} > F4 {f4:.4f}")


def test_07_coupling_monotonicity_normalized_time():
    c = 0.5  # t J / 2pi, inside the decay window for every coupling
    vals = []
    for J in (4.0, 6.0, 8.0, 16.0):
        t_ns = 1000.0 * c / J
        vals.append(two_forward_fidelity(PSI["psi4"], J, t_ns))
    ok = all(vals[i] > vals[i + 1] for i in range(3))
    report(7, "at fixed normalized time the decay deepens with coupling", ok,
           " > ".join(f"{v:.4f}" for v in vals))


def test_08_strong_thermalization():
    basis = build_basis(L, 3)
    cp, up = table_profiles(16.0)
    om = TransverseProfile.from_mhz([16.0] * L)
    H = build_hopping(basis, cp) + build_onsite_anharmonicity(basis, up) + \
        build_transverse(basis, om)
    psi = parse_product_state(PSI["psi5"], basis)
    window_p1 = []
    window_s = []
    t = 0.0
    for _ in range(10):
        psi = evolve_static(H, psi, 20.0)
        t += 20.0
        if t >= 100.0:
            window_p1.append(site_populations(psi)[:, 1])
            window_s.append(half_chain_entropy(psi, 5))
    p1_mean = np.mean(window_p1, axis=0)
    s_mean = float(np.mean(window_s))
    dev = float(np.abs(p1_mean - 0.5).max())
    ok = dev <= 0.05 and abs(s_mean - PAGE_VALUE) <= 0.15 * PAGE_VALUE
    report(8, "alternating state thermalizes: P1 near 0.5, entropy near the Page value",
           ok, f"max |P1-0.5| {dev:.3f}, entropy {s_mean:.3f} vs {PAGE_VALUE:.3f}")


def test_09_two_level_and_single_particle_exactness():
    # any two-level reversal, including a transverse field
    b2 = build_basis(L, 2)
    cp, up = table_profiles(16.0)
    seg = Segment(120.0, cp, up, transverse=TransverseProfile.from_mhz([9.0] * L))
    psi0 = parse_product_state(PSI["psi4"], b2)
    *_, (_, p) = run_protocol(Protocol((seg, reverse_of(seg))), psi0)
    f_two_level = fidelity(psi0, p)
    # any single-particle three-level reversal with full interaction strength
    b1 = build_basis(L, 3, sector=1)
    seg1 = Segment(150.0, cp, up)
    psi1 = parse_product_state("0001000000", b1)
    *_, (_, p1) = run_protocol(Protocol((seg1, reverse_of(seg1))), psi1)
    f_single = fidelity(psi1, p1)
    ok = abs(f_two_level - 1.0) <= 1e-8 and abs(f_single - 1.0) <= 1e-8
    report(9, "two-level and single-particle reversals are exact", ok,
           f"1-F = {1 - f_two_level:.2e}, {1 - f_single:.2e}")


def test_10_picture_equivalence():
    worst = 0.0
    for (l, n, t_ns) in ((4, 2, 120.0), (6, 3, 80.0)):
        basis = build_basis(l, 3, sector=n)
        cp = CouplingProfile.from_mhz([16.0] * (l - 1))
        up = AnharmonicityProfile.from_mhz([TABLE_S1_U_MHZ[j % 10] for j in range(l)])
        tokens = "".join("1" if j < n else "0" for j in range(l))
        psi0 = parse_product_state(tokens, basis)
        seg = Segment(t_ns, cp, up)
        *_, (_, p) = run_protocol(Protocol((seg, reverse_of(seg))), psi0)
        echo = fidelity(psi0, p)
        H0 = build_hopping(basis, cp)
        HU = build_onsite_anharmonicity(basis, up)
        overlap = fidelity(
            evolve_static(H0 + HU, psi0, t_ns),
            evolve_static(H0 + (-1.0) * HU, psi0, t_ns),
        )
        worst = max(worst, abs(echo - overlap))
    ok = worst <= 1e-8
    report(10, "reversal echo equals the two-forward-evolution overlap", ok,
           f"max |difference| {worst:.2e}")


def test_11_oracle_equivalence():
    def dense_propagate(Hd, v, t):
        w, P = np.linalg.eigh(Hd)
        return (P * np.exp(-1j * t * w)) @ (P.conj().T @ v)

    # static path plus a full reversal protocol against dense stepping
    basis = build_basis(4, 3)
    cp = CouplingProfile.from_mhz([16.0, 12.0, 14.0])
    up = AnharmonicityProfile.from_mhz([212.0, 264.0, 210.0, 268.0])
    om = TransverseProfile.from_mhz([9.0, 7.0, 5.0, 3.0])
    seg = Segment(90.0, cp, up, transverse=om)
    psi0 = parse_product_state("+10+", basis)
    traj = list(run_protocol(Protocol((seg, reverse_of(seg)), sample_dt_ns=30.0), psi0))
    Hf = seg.static_hamiltonian(basis).dense()
    Hb = reverse_of(seg).static_hamiltonian(basis).dense()
    v = psi0.amplitudes
    worst = 0.0
    for i, (t, state) in enumerate(traj):
        if i:
            dt = t - traj[i - 1][0]
            v = dense_propagate(Hf if t <= 90.0 + 1e-9 else Hb, v, dt)
        worst = max(worst, float(np.linalg.norm(v - state.amplitudes)))

    # driven path against dense stepping on the same substep grid
    basis3 = build_basis(3, 3)
    cp3 = CouplingProfile.from_mhz([10.8, 10.8])
    up3 = AnharmonicityProfile.from_mhz([212.0, 264.0, 210.0])
    drive = DriveSpec.staggered_odd(3, 213.6, 120.0)
    Hs = build_hopping(basis3, cp3) + build_onsite_anharmonicity(basis3, up3)
    D = build_number_weighted(basis3, drive.eps)
    psi3 = parse_product_state("110", basis3)
    T = drive.period_ns
    h = T / 64
    mine = evolve_driven(Hs, D, drive, psi3, 0.0, 3 * T, h)
    sq3 = math.sqrt(3.0)
    x1, x2 = (3 - 2 * sq3) / 12, (3 + 2 * sq3) / 12
    Hd = Hs.dense()
    dvec = np.real(D.dense().diagonal())
    v3 = psi3.amplitudes.copy()
    for k in range(3 * 64):
        ta = k * h
        c1 = math.cos(drive.nu * (ta + (0.5 - sq3 / 6) * h))
        c2 = math.cos(drive.nu * (ta + (0.5 + sq3 / 6) * h))
        for g in (2 * (x2 * c1 + x1 * c2), 2 * (x1 * c1 + x2 * c2)):
            v3 = dense_propagate(Hd + np.diag(g * dvec), v3, h / 2)
    driven_err = float(np.linalg.norm(mine.amplitudes - v3))

    # sector spectrum against the closed two-site form
    J = 8.0
    U = 240.0
    rep = sector_spectrum(2, 2, 3, CouplingProfile.from_mhz([J]),
                          AnharmonicityProfile.from_mhz([U, U]))
    from quenchsim import omega_from_mhz
    Jw, Uw = omega_from_mhz(J), omega_from_mhz(U)
    disc = math.sqrt(Uw * Uw + 16 * Jw * Jw)
    expected = np.sort([-Uw, (-Uw - disc) / 2, (-Uw + disc) / 2])
    spec_err = float(np.max(np.abs(rep.eigenvalues - expected) / np.abs(expected)))

    ok = worst <= 1e-8 and driven_err <= 1e-8 and spec_err <= 1e-10
    report(11, "propagation and spectra match dense and closed-form oracles", ok,
           f"protocol {worst:.2e}, driven {driven_err:.2e}, spectrum rel {spec_err:.2e}")


def test_12_conservation_suite():
    basis = build_basis(L, 3, sector=5)
    cp, up = table_profiles(8.0)
    H = build_hopping(basis, cp) + build_onsite_anharmonicity(basis, up)
    N = total_number(basis)
    psi = parse_product_state(PSI["psi5"], basis)
    # raw engine: chain Krylov steps for 1000 ns without renormalizing
    v = psi.amplitudes.copy()
    n_drift = 0.0
    e_drift = 0.0
    e0 = float(np.vdot(v, H.matvec(v)).real)  # zero for the alternating state
    num0 = float(np.vdot(v, N.matvec(v)).real)
    for _ in range(20):
        v = _Krylov(H.matvec).advance(v, 50.0)
        vv = float(np.vdot(v, v).real)
        n_drift = max(n_drift, abs(float(np.vdot(v, N.matvec(v)).real) / vv - num0))
        e_drift = max(e_drift, abs(float(np.vdot(v, H.matvec(v)).real) / vv - e0))
    norm_drift = abs(float(np.linalg.norm(v)) - 1.0)
    ok = norm_drift <= 1e-8 and n_drift <= 1e-8 and e_drift <= 1e-8
    report(12, "norm, particle number and energy are conserved over 1000 ns", ok,
           f"norm {norm_drift:.2e}, number {n_drift:.2e}, energy {e_drift:.2e} rad/ns")


def test_13_floquet_effective_model_strict():
    # Exactly as stated: ten-site two-level chain, staggered drive at the
    # quoted quench parameters, compared stroboscopically against the
    # J0-renormalized static chain over ten periods. The effective model's
    # own (J/nu)^2-per-period corrections accumulate beyond the 1% budget
    # at these parameters, so this criterion is expected to fail; the same
    # check passes at four times the drive frequency (see
    # test_propagator.py::TestEvolveDriven::test_effective_coupling_high_frequency_limit).
    basis = build_basis(L, 2, sector=5)
    cp = CouplingProfile.from_mhz([10.8] * (L - 1))
    up = AnharmonicityProfile.from_mhz([0.0] * L)
    drive = DriveSpec.staggered_odd(L, 213.6, 120.0)
    psi0 = parse_product_state(PSI["psi5"], basis)
    seg = Segment(10 * drive.period_ns, cp, up, drive=drive)
    proto = Protocol((seg,), sample_dt_ns=drive.period_ns)
    traj = list(run_protocol(proto, psi0))
    jeff = effective_coupling(10.8, 213.6, 120.0)
    Heff = build_hopping(basis, CouplingProfile.from_mhz([jeff] * (L - 1)))
    fids = [fidelity(evolve_static(Heff, psi0, t), p) for t, p in traj[1:]]
    worst = min(fids)
    ok = worst >= 0.99
    report(13, "staggered drive tracks the effective-coupling model for ten periods",
           ok, f"worst stroboscopic fidelity {worst:.4f}")
