"""flexarb: LP-based storage arbitrage and flexible-load scheduling.

Two linear programs sit at the core: a battery arbitrage model with
capacity, swing, and ramp-rate limits and an epigraph formulation of its
piecewise-linear cost, and a deadline-constrained flexible-load model for
devices such as EV chargers.  Around them the package offers ramp-rate
sensitivity sweeps, equivalent-cycle accounting, a seeded Monte Carlo
benchmark, price-signal I/O, a brute-force dynamic-programming oracle for
cross-checking, and a CLI that writes plot-ready CSV/JSON artifacts.

Solves run on a self-contained bounded-variable revised simplex written in
numpy.  It starts a storage LP with ramp rows from the optimum of the LP
without them, and each later solve of a ramp-rate sweep from the basis of
the one before.
"""

from .lp import (
    BIG_BOUND,
    FEASIBILITY_TOL,
    LpProblem,
    LpSolution,
    LpValidationError,
    SolveStats,
    SolveStatus,
    dump_lp,
    solve_lp,
    validate_lp,
)
from .pricing import (
    PriceShape,
    PriceSignal,
    PriceSignalError,
    derive_sell_prices,
    load_price_csv,
    load_price_json,
    sample_day,
    save_price_csv,
    save_price_json,
    synthetic_day,
)
from .storage import (
    StorageParamError,
    StorageParams,
    StorageSchedule,
    build_storage_lp,
    check_storage_schedule,
    consumed_power,
    effective_efficiencies,
    extract_storage_schedule,
    step_cost_segments,
)
from .flexibility import (
    FlexParamError,
    FlexParams,
    FlexSchedule,
    build_flex_lp,
    check_flex_schedule,
    extract_flex_schedule,
    nominal_profile,
)
from .oracle import OracleBudgetError, solve_storage_oracle
from .analysis import (
    McReport,
    SweepResult,
    arbitrage_gain,
    default_price_generator,
    equivalent_full_cycles,
    monte_carlo_run,
    ramp_rate_sweep,
    solve_storage_day,
    switching_count,
    write_sweep_csv,
    write_sweep_json,
    xc_yc_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "BIG_BOUND",
    "FEASIBILITY_TOL",
    "FlexParamError",
    "FlexParams",
    "FlexSchedule",
    "LpProblem",
    "LpSolution",
    "LpValidationError",
    "McReport",
    "OracleBudgetError",
    "PriceShape",
    "PriceSignal",
    "PriceSignalError",
    "SolveStats",
    "SolveStatus",
    "StorageParamError",
    "StorageParams",
    "StorageSchedule",
    "SweepResult",
    "arbitrage_gain",
    "build_flex_lp",
    "build_storage_lp",
    "check_flex_schedule",
    "check_storage_schedule",
    "consumed_power",
    "default_price_generator",
    "derive_sell_prices",
    "dump_lp",
    "effective_efficiencies",
    "equivalent_full_cycles",
    "extract_flex_schedule",
    "extract_storage_schedule",
    "load_price_csv",
    "load_price_json",
    "monte_carlo_run",
    "nominal_profile",
    "ramp_rate_sweep",
    "sample_day",
    "save_price_csv",
    "save_price_json",
    "solve_lp",
    "solve_storage_day",
    "solve_storage_oracle",
    "step_cost_segments",
    "switching_count",
    "synthetic_day",
    "validate_lp",
    "write_sweep_csv",
    "write_sweep_json",
    "xc_yc_sweep",
    "__version__",
]
