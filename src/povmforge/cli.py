"""Experiment runner: scans and checks emitting CSV/JSON with seeded headers.

Every command is deterministic given its seed and parameters, echoes both
into the output header, and encodes acceptance in its exit status (0 only
when all row-level assertions hold). CSV uses ',' separators, '.' decimals
and '#' comment lines; JSON outputs carry the same metadata under "_meta".
"""

import json
import math
import os

import click

from . import DEFAULT_SEED, __version__
from .covariant import CovariantSeed, bell_program_check
from .detector import estimate_accuracy
from .linalg import Rng, haar_unitary
from .povm import (
    check_enumerable,
    distance_bounds,
    maximally_mixed,
    observable_from_unitary,
    povm_distance,
    pure_state,
)
from .serialize import load_json, matrix_to_json, povm_from_json
from .su2 import (
    COVARIANT_TWICE_J_CAP,
    GroupElement,
    covariant_qubit_detector,
    covariant_target,
    matched_covariant_rule,
)
from .unet import NET_DIM_CAP, scaling_scan

# fiurasek-scan's --n-max cap, the tested covariant range (2j <= 200); some
# cap must stay, since 0.5 * 4**(1/eps) overflows from about N = 1023.
SCAN_COPY_CAP = 200


def _fmt(x):
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _header(command, seed, tol, **params):
    extras = " ".join(f"{k}={_fmt(v)}" for k, v in params.items())
    line = f"# seed={seed} tol={_fmt(tol)}"
    if extras:
        line += " " + extras
    return [f"# povmforge {__version__} {command}", line]


def _emit_text(lines, out):
    text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
        click.echo(f"wrote {out}")
    else:
        click.echo(text, nl=False)


class _FiniteRange(click.FloatRange):
    # FloatRange's bounds compare false for NaN: refuse NaN and ±inf outright.
    def convert(self, value, param, ctx):
        x = super().convert(value, param, ctx)
        return x if math.isfinite(x) else self.fail(f"{x} is not finite.", param, ctx)

    def _describe_range(self):
        return "" if self.min is None and self.max is None else super()._describe_range()


seed_option = click.option(
    "--seed",
    type=click.IntRange(0, 2**64 - 1),
    default=DEFAULT_SEED,
    show_default=True,
    envvar="POVMFORGE_SEED",
    help="Random seed (env: POVMFORGE_SEED).",
)


def _check_out_dir(ctx, param, value):
    # Refuse up front: open() would fail only after the whole computation.
    if value and not os.path.isdir(os.path.dirname(os.path.abspath(value))):
        raise click.BadParameter(f"directory of {value} does not exist", ctx, param)
    return value


out_option = click.option(
    "--out",
    type=click.Path(dir_okay=False, writable=True),
    default=None,
    callback=_check_out_dir,
    help="Output file; stdout when omitted.",
)


@click.group()
@click.version_option(version=__version__, prog_name="povmforge")
def main():
    """Programmable-detector experiments with reproducible outputs."""


def _law_scan(command, size_name, sizes, draw, cost, n_targets, tol, seed, out,
              **params):
    """One CSV row per size checking the accuracy law 2/(size+1); exit 1 on a miss.

    Rows run `covariant_qubit_detector(size/2)` with its matched rule, which
    at j = N/2 is the 2^N symmetric-projector detector restricted to the
    symmetric subspace its N-copy programs live in. `draw(rng)` draws each
    target from Rng(seed).child(size); `cost(size, eps)` gives the command's
    ancilla dimension d and d recomputed from eps.
    """
    lines = _header(command, seed, tol, **params, targets=n_targets)
    lines.append(f"{size_name},d,epsilon_measured,epsilon_theory,max_abs_err")
    failed = False
    for size in sizes:
        theory = 2.0 / (size + 1)
        d, d_from_theory = cost(size, theory)
        child = Rng(seed).child(size)
        targets = [draw(child) for _ in range(n_targets)]
        report = estimate_accuracy(covariant_qubit_detector(size / 2), targets,
                                   matched_covariant_rule(size / 2))
        err = max(abs(r.delta - theory) for r in report.per_target)
        if err > tol or abs(d - d_from_theory) > 1e-12 * d:
            failed = True
        lines.append(
            ",".join(_fmt(v) for v in (size, d, report.epsilon, theory, err))
        )
    _emit_text(lines, out)
    if failed:
        raise SystemExit(1)


targets_option = click.option(
    "--targets", "n_targets", type=click.IntRange(min=1), default=20,
    show_default=True,
)


@main.command("fiurasek-scan")
@click.option("--n-min", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--n-max", type=int, default=6, show_default=True)
@targets_option
@click.option("--tol", type=_FiniteRange(min=0), default=1e-9, show_default=True)
@seed_option
@out_option
def cmd_fiurasek_scan(n_min, n_max, n_targets, tol, seed, out):
    """Accuracy of the symmetric-projector detector against copy count N.

    Ancilla dimension d = 2^N, accuracy 2/(N+1): exponentially expensive
    programming. Each row checks measured accuracy on Haar-random sharp
    targets with matched program states, plus the d = 4^(1/eps)/2 identity.
    Rows run the covariant detector at j = N/2, which is this detector on
    the N-copy symmetric subspace, so N goes up to 200 at O(N^2) cost.
    """
    if n_max < n_min:
        raise click.UsageError(f"empty range: --n-max {n_max} < --n-min {n_min}")
    if n_max > SCAN_COPY_CAP:
        raise click.UsageError(
            f"--n-max {n_max} exceeds the copy cap {SCAN_COPY_CAP}"
        )
    _law_scan("fiurasek-scan", "N", range(n_min, n_max + 1),
              lambda rng: observable_from_unitary(haar_unitary(2, rng)),
              lambda n, eps: (2 ** n, 0.5 * 4.0 ** (1.0 / eps)),
              n_targets, tol, seed, out, n_min=n_min, n_max=n_max)


@main.command("covariant-scan")
@click.option("--j-min", "twice_j_min",
              type=click.IntRange(1, COVARIANT_TWICE_J_CAP), default=1,
              show_default=True, help="Smallest ancilla spin, as twice j.")
@click.option("--j-max", "twice_j_max",
              type=click.IntRange(1, COVARIANT_TWICE_J_CAP), default=9,
              show_default=True, help="Largest ancilla spin, as twice j.")
@targets_option
@click.option("--tol", type=_FiniteRange(min=0), default=1e-9, show_default=True)
@seed_option
@out_option
def cmd_covariant_scan(twice_j_min, twice_j_max, n_targets, tol, seed, out):
    """Accuracy of the rotation-covariant detector against ancilla spin.

    Ancilla dimension d = 2j+1, accuracy 2/d: linear scaling. Rows check
    measured accuracy on rotated sharp targets and the d = 2/eps identity.
    Each row's targets depend only on the seed and 2j, so --j-min runs the
    rows from 2j = --j-min exactly as the full scan does.
    """
    if twice_j_max < twice_j_min:
        raise click.UsageError(
            f"empty range: --j-max {twice_j_max} < --j-min {twice_j_min}"
        )
    # The header names j_min only off its default, so default runs keep their output.
    from_j_min = {"j_min": twice_j_min} if twice_j_min != 1 else {}
    _law_scan("covariant-scan", "twice_j", range(twice_j_min, twice_j_max + 1),
              lambda rng: covariant_target(GroupElement.random(rng)),
              lambda twice_j, eps: (twice_j + 1, 2.0 / eps),
              n_targets, tol, seed, out, **from_j_min, j_max=twice_j_max)


@main.command("net-scan")
@click.option("--dim", "n", type=click.IntRange(1, NET_DIM_CAP), default=2,
              show_default=True)
@click.option("--eps", "eps_list", type=_FiniteRange(0, 2, min_open=True),
              multiple=True, default=(1.2, 0.9, 0.7, 0.5, 0.35), show_default=True)
@click.option("--budget", type=click.IntRange(min=1), default=2000, show_default=True)
@click.option("--samples", type=click.IntRange(min=1), default=1000, show_default=True)
@click.option("--exp-min", type=_FiniteRange(), default=1.3, show_default=True)
@click.option("--exp-max", type=_FiniteRange(), default=2.7, show_default=True)
@click.option("--min-coverage", type=_FiniteRange(0, 1), default=0.99,
              show_default=True)
@seed_option
@out_option
def cmd_net_scan(n, eps_list, budget, samples, exp_min, exp_max, min_coverage,
                 seed, out):
    """Greedy net sizes across accuracies, with the fitted growth exponent.

    Writes one CSV row per accuracy and a JSON summary (exponent and fitted
    prefactor). With --out FILE.csv the summary lands in FILE.json; an --out
    ending in .json is bad usage. Exits nonzero if the exponent leaves
    [--exp-min, --exp-max] or any row's coverage falls below --min-coverage.
    """
    if exp_min > exp_max:
        raise click.UsageError(f"empty band: --exp-min {exp_min} > --exp-max {exp_max}")
    if len(set(eps_list)) < 2:
        raise click.UsageError("the exponent fit needs at least two distinct --eps values")
    summary_out = os.path.splitext(out)[0] + ".json" if out else None
    if out and summary_out == out:
        raise click.UsageError(f"--out {out} is also the JSON summary's path")
    rng = Rng(seed)
    result = scaling_scan(n, list(eps_list), budget, rng, samples=samples)
    lines = _header(
        "net-scan", seed, 0.0, dim=n, budget=budget, samples=samples,
        eps=":".join(_fmt(e) for e in eps_list),
    )
    lines.append("epsilon,radius,net_size,coverage_rate,seed")
    failed = False
    for row in result.rows:
        if row.coverage_rate < min_coverage:
            failed = True
        lines.append(
            ",".join(
                _fmt(v)
                for v in (row.epsilon, row.radius, row.net_size,
                          row.coverage_rate, row.seed)
            )
        )
    if not (exp_min <= result.exponent <= exp_max):
        failed = True
    _emit_text(lines, out)
    payload = {
        "_meta": {"version": __version__, "command": "net-scan", "seed": seed,
                  "dim": n, "budget": budget, "samples": samples},
        "exponent": result.exponent,
        "kappa_fit": result.kappa,
        "exponent_band": [exp_min, exp_max],
        "min_coverage": min_coverage,
        "pass": not failed,
    }
    _emit_text([json.dumps(payload, indent=1)], summary_out)
    if failed:
        raise SystemExit(1)


@main.command("exact-check")
@click.option("--pairs", type=click.IntRange(min=0), default=50, show_default=True)
@click.option("--tol", type=_FiniteRange(min=0), default=1e-10, show_default=True)
@click.option("--negative-control", is_flag=True,
              help="Add rows with the transpose deliberately omitted.")
@seed_option
@out_option
def cmd_exact_check(pairs, tol, negative_control, seed, out):
    """Pointwise residuals of exact covariant programming.

    Row 0 uses the maximally mixed seed; remaining rows draw Haar-random
    pure seeds and rotations. Control rows (flag column 1) drop the
    transpose and show √2·|r_y| for the seed's Bloch vector r, uniform on
    [0, √2] with mean ≈ 0.71; they do not affect the exit status.
    """
    rng = Rng(seed)
    lines = _header("exact-check", seed, tol, pairs=pairs,
                    negative_control=int(negative_control))
    lines.append("nu_id,alpha,beta,gamma,residual,control")
    failed = False

    def add_row(nu_id, g, residual, control):
        nonlocal failed
        a, b, c = g.euler_angles
        if not control and residual > tol:
            failed = True
        lines.append(
            ",".join(_fmt(v) for v in (nu_id, a, b, c, residual, int(control)))
        )

    g0 = GroupElement.random(rng)
    seed0 = CovariantSeed(maximally_mixed(2))
    add_row(0, g0, bell_program_check(seed0, g0), False)
    for i in range(1, pairs + 1):
        nu = pure_state(haar_unitary(2, rng)[:, 0])
        g = GroupElement.random(rng)
        cseed = CovariantSeed(nu)
        add_row(i, g, bell_program_check(cseed, g), False)
        if negative_control:
            add_row(i, g, bell_program_check(cseed, g, use_transpose=False), True)
    _emit_text(lines, out)
    if failed:
        raise SystemExit(1)


@main.command("distance")
@click.argument("povm_a", type=click.Path(exists=True, dir_okay=False))
@click.argument("povm_b", type=click.Path(exists=True, dir_okay=False))
@seed_option
@out_option
def cmd_distance(povm_a, povm_b, seed, out):
    """Exact distance between two POVM files, with bounds and witness.

    Emits {delta, sum_op_bound, sum_fro_bound, witness_state}; the bounds
    always satisfy delta <= sum_op <= sum_fro.
    """
    # Bad input files are bad usage; errors from the eigensolves below are not.
    try:
        p = povm_from_json(load_json(povm_a))
        q = povm_from_json(load_json(povm_b))
        check_enumerable(p, q)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    delta, witness = povm_distance(p, q, return_witness=True)
    sum_op, sum_fro = distance_bounds(p, q)
    payload = {
        "_meta": {"version": __version__, "command": "distance", "seed": seed,
                  "povm_a": os.path.basename(povm_a),
                  "povm_b": os.path.basename(povm_b)},
        "delta": delta,
        "sum_op_bound": sum_op,
        "sum_fro_bound": sum_fro,
        "witness_state": matrix_to_json(witness.matrix),
    }
    _emit_text([json.dumps(payload, indent=1)], out)


if __name__ == "__main__":
    main()
