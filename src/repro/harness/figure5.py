"""Harness wrapper regenerating Figure 5 and Table 4 as text."""

from repro.model import figure5
from repro.model.params import ModelParams


def render_report(params=None, max_threads=8):
    """Table 4 + the Figure 5 series + the ASCII plot, as one report."""
    params = params or ModelParams()
    points = figure5.compute(params, max_threads=max_threads)
    sections = [
        "Table 4: Default system parameters",
        "-" * 40,
        params.render_table4(),
        "",
        "Figure 5: Processor utilization vs resident threads "
        "(C = %d cycles)" % params.context_switch,
        "-" * 70,
        figure5.render(points),
        "",
        figure5.ascii_plot(points),
    ]
    return "\n".join(sections)


def headline_numbers(params=None):
    """The Section 8 claims as a dict (for EXPERIMENTS.md and tests)."""
    from repro.model.utilization import solve
    params = params or ModelParams()
    u1, t1, m1 = solve(params, 1)
    u3, _, _ = solve(params, 3)
    curve = [solve(params, p)[0] for p in range(1, 17)]
    return {
        "base_round_trip": params.base_round_trip,
        "U(1)": u1,
        "U(3)": u3,
        "U_max": max(curve),
        "U(8)": curve[7],
        "plateau_at": curve.index(max(curve)) + 1,
    }
