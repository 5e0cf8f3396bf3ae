"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line straight to the real stdout so the
outcome of every criterion is visible in the test log even under
capture. Tolerances are pinned here and nowhere looser.
"""

import contextlib
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from relayregions import (
    AuxJoint,
    ChannelParams,
    DmcSpec,
    GdpcParams,
    GridSpec,
    InformedBothParams,
    binary_pipes_spec,
    build_cov_informed_both,
    build_cov_informed_source,
    discrete_cmi,
    dmc_maximize,
    gaussian_cmi,
    gdpc_rates,
    max_beta_nostate,
    max_r02_gdpc,
    nostate_terms,
    rho_upper_bound,
    sample_mi_estimate,
    verify_gdpc,
    verify_informed_both,
    verify_relay_identity,
)
from relayregions.dmc import AXES

from references import compose_full


@contextlib.contextmanager
def criterion(capsys, num, label):
    def emit(status):
        with capsys.disabled():
            print(f"criterion {num}: {status}  {label}", flush=True)

    try:
        yield
    except BaseException:
        emit("FAIL")
        raise
    emit("PASS")


def _draw_channel(rng, q_min=0.1):
    p1 = rng.uniform(0.2, 4.0)
    p2 = rng.uniform(0.0, 4.0)
    q = rng.uniform(q_min, 4.0)
    n1 = rng.uniform(0.05, 1.0)
    n2 = n1 * rng.uniform(1.5, 8.0)
    return ChannelParams(p1, p2, q, n1, n2)


def test_criterion_1_oracle_equality_encoder_informed(capsys):
    with criterion(capsys, 1, "covariance oracle matches the closed forms on 200 draws"):
        rng = np.random.default_rng(20260801)
        start = time.monotonic()
        worst = 0.0
        for _ in range(200):
            c = _draw_channel(rng)
            gamma = rng.uniform(0.0, 0.97)
            rho = rng.uniform(0.0, 1.0) * rho_upper_bound(c, gamma)
            g = GdpcParams(gamma, rho, rng.uniform(0.0, 0.98), rng.uniform(0.0, 1.0))
            rep = verify_gdpc(c, g, tol=1e-9)
            worst = max(worst, rep.max_abs_diff)
            assert rep.passed, (c, g, rep.max_abs_diff)
        elapsed = time.monotonic() - start
        assert worst <= 1e-9
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_2_capacity_independent_of_state_power(capsys):
    with criterion(capsys, 2, "both-informed region is exact and free of q on 200 draws"):
        rng = np.random.default_rng(20260802)
        for _ in range(200):
            p1 = rng.uniform(0.2, 4.0)
            p2 = rng.uniform(0.0, 4.0)
            n1 = rng.uniform(0.05, 1.0)
            n2 = n1 * rng.uniform(1.5, 8.0)
            p = InformedBothParams(rng.uniform(0.0, 0.97), rng.uniform(0.0, 1.0))
            rows = []
            for q in (0.1, 1.0, 10.0):
                rep = verify_informed_both(
                    ChannelParams(p1, p2, q, n1, n2), p, tol=1e-9
                )
                assert rep.passed, (q, rep.max_abs_diff)
                rows.append([t.oracle for t in rep.details])
            spread = float(np.max(np.ptp(np.array(rows), axis=0)))
            assert spread <= 1e-9, spread


def test_criterion_3_relay_conditioning_identity(capsys):
    with criterion(capsys, 3, "relay-input and cooperative conditioning agree on 50 draws"):
        rng = np.random.default_rng(20260803)
        for _ in range(50):
            p1 = rng.uniform(0.2, 4.0)
            p2 = rng.uniform(0.2, 4.0)
            q = rng.uniform(0.1, 4.0)
            n1 = rng.uniform(0.05, 1.0)
            n2 = n1 * rng.uniform(1.5, 8.0)
            c = ChannelParams(p1, p2, q, n1, n2)
            p = InformedBothParams(rng.uniform(0.0, 0.97), rng.uniform(0.0, 1.0))
            rep = verify_relay_identity(c, p, tol=1e-9)
            assert rep.passed, (c, p, rep.max_abs_diff)


def test_criterion_4_closed_form_anchor(capsys):
    with criterion(capsys, 4, "anchor channel gives beta* = 0.36 at 0.5*log2(4.6) bits"):
        c = ChannelParams(1.0, 1.0, 0.0, 0.1, 1.0)
        beta, value = max_beta_nostate(c, 0.0)
        assert beta == pytest.approx(0.36, abs=1e-6)
        assert value == pytest.approx(0.5 * math.log2(4.6), abs=1e-6)


def test_criterion_5_region_ordering_across_snr(capsys):
    with criterion(capsys, 5, "dpc <= gdpc <= outer with a widening gap over five SNRs"):
        start = time.monotonic()
        gaps = []
        for snr_db in (10.0, 15.0, 20.0, 25.0, 30.0):
            n1 = 1.0 / 10.0 ** (snr_db / 10.0)
            c = ChannelParams(1.0, 1.0, 2.0, n1, 1.0)
            dpc = max_r02_gdpc(c, 0.0, freeze_rho=True).value
            gdpc = max_r02_gdpc(c, 0.0).value
            outer = max_beta_nostate(c, 0.0)[1]
            assert dpc <= gdpc + 1e-6, (snr_db, dpc, gdpc)
            assert gdpc <= outer + 1e-9, (snr_db, gdpc, outer)
            gaps.append(gdpc - dpc)
        assert all(b >= a - 1e-9 for a, b in zip(gaps, gaps[1:])), gaps
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_6_reduction_without_state(capsys):
    with criterion(capsys, 6, "q = 0 collapses the inner bound onto the exact region"):
        rng = np.random.default_rng(20260806)
        fine = GridSpec(33, 33, 9, 0.25)
        for _ in range(100):
            p1 = rng.uniform(0.2, 4.0)
            p2 = rng.uniform(0.0, 4.0)
            n1 = rng.uniform(0.05, 1.0)
            n2 = n1 * rng.uniform(1.5, 8.0)
            c = ChannelParams(p1, p2, 0.0, n1, n2)
            gamma = rng.uniform(0.0, 0.97)
            beta = rng.uniform(0.0, 1.0)
            r = gdpc_rates(c, GdpcParams(gamma, 0.0, beta, rng.uniform(0.0, 1.0)))
            t1, t2 = nostate_terms(c, gamma, 1.0 - beta * beta)
            assert abs(r.r1_sum - t1) <= 1e-9
            assert abs(r.r2_sum - t2) <= 1e-9
            got = max_r02_gdpc(c, gamma, fine).value
            want = max_beta_nostate(c, gamma)[1]
            assert abs(got - want) <= 1e-6, (c, gamma, got, want)


def test_criterion_7_discrete_brute_force_oracle(capsys):
    with criterion(capsys, 7, "discrete evaluator: pipes hit 1 bit, penalties and identities"):
        res = dmc_maximize(binary_pipes_spec(), bounds="informed-source", denominator=4)
        assert res.value.r02 == 1.0

        rng = np.random.default_rng(20260807)
        for _ in range(20):
            sizes = (1, *(int(v) for v in rng.integers(1, 4, size=6)))
            ns, _, _, nx1, nx2, ny1, ny2 = sizes
            channel = rng.dirichlet(np.ones(ny1 * ny2), size=(ns, nx1, nx2)).reshape(
                ns, nx1, nx2, ny1, ny2
            )
            d = DmcSpec(sizes=sizes, p_s=np.ones(1), channel=channel)
            cells = int(np.prod(sizes[1:5]))
            aux = AuxJoint(rng.dirichlet(np.ones(cells)).reshape(sizes[:5]))
            joint = compose_full(d, aux)
            assert discrete_cmi(joint, AXES, ["u2"], ["s"], ["x2"]) <= 1e-12
            assert discrete_cmi(joint, AXES, ["u1"], ["s"], ["u2", "x2"]) <= 1e-12

        for _ in range(100):
            sizes = tuple(int(v) for v in rng.integers(1, 4, size=7))
            ns, _, _, nx1, nx2, ny1, ny2 = sizes
            p_s = rng.dirichlet(np.ones(ns))
            channel = rng.dirichlet(np.ones(ny1 * ny2), size=(ns, nx1, nx2)).reshape(
                ns, nx1, nx2, ny1, ny2
            )
            d = DmcSpec(sizes=sizes, p_s=p_s, channel=channel)
            cells = int(np.prod(sizes[1:5]))
            cond = rng.dirichlet(np.ones(cells), size=ns)
            aux = AuxJoint((p_s[:, None] * cond).reshape(sizes[:5]))
            joint = compose_full(d, aux)
            chain_lhs = discrete_cmi(joint, AXES, ["u1"], ["y1"], ["s"]) + discrete_cmi(
                joint, AXES, ["u2"], ["y1"], ["s", "u1"]
            )
            chain_rhs = discrete_cmi(joint, AXES, ["u1", "u2"], ["y1"], ["s"])
            assert abs(chain_lhs - chain_rhs) <= 1e-10
            leak = discrete_cmi(
                joint, AXES, ["u1", "u2"], ["y1", "y2"], ["x1", "x2", "s"]
            )
            assert leak <= 1e-10


def test_criterion_8_sampling_agrees_with_determinant_oracle(capsys):
    with criterion(capsys, 8, "10^6-sample estimates track the analytic values on 10 terms"):
        c = ChannelParams(1.0, 1.0, 2.0, 0.1, 1.0)
        cov_both = build_cov_informed_both(c, InformedBothParams(0.3, 0.45))
        g = GdpcParams(0.3, 0.25 * rho_upper_bound(c, 0.3), 0.45, 0.6)
        cov_src = build_cov_informed_source(c, g)
        terms = (
            (cov_both, ["X1"], ["Y1"], ["S", "U1", "U2", "X2"]),
            (cov_both, ["X1"], ["Y1"], ["S", "U1", "X2"]),
            (cov_both, ["U2"], ["Y1"], ["S", "U1"]),
            (cov_both, ["U1", "U2"], ["Y2"], []),
            (cov_both, ["U1", "U2"], ["S"], []),
            (cov_src, ["U1"], ["Y1"], ["U2", "X2"]),
            (cov_src, ["U1"], ["Sprime"], ["U2", "X2"]),
            (cov_src, ["U2"], ["Y1"], ["X2"]),
            (cov_src, ["U2", "X2"], ["Y2"], []),
            (cov_src, ["U2"], ["Sprime"], ["X2"]),
        )
        for k, (cov, set_a, set_b, set_c) in enumerate(terms):
            est = sample_mi_estimate(cov, set_a, set_b, set_c, 10**6, seed=100 + k)
            exact = gaussian_cmi(cov, set_a, set_b, set_c)
            assert abs(est - exact) <= 0.01, (k, est, exact)


def test_criterion_9_byte_identical_reruns(tmp_path, capsys):
    with criterion(capsys, 9, "two identical frontier runs write byte-identical CSV"):
        args = [
            sys.executable, "-m", "relayregions.cli", "frontier",
            "--channel", "1,1,2,0.1,1", "--gamma-grid", "0:1:11",
        ]
        outs = []
        for name in ("first.csv", "second.csv"):
            path = tmp_path / name
            proc = subprocess.run(
                args + ["--out", str(path)], capture_output=True, text=True
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]
        assert outs[0].startswith(b"scheme,gamma,rho,beta,alpha2,r1,r02\n")
