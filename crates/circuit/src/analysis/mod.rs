//! Circuit analyses: operating point, DC sweep, AC small-signal, transient.

mod ac;
mod atlas;
mod checkpoint;
mod dc;
mod jobspec;
mod op;
mod steady;
mod sweep;
mod tran;

pub use ac::{ac_impedance, AcOptions};
pub use atlas::{AtlasMap, AtlasSpec, AtlasStats, CellOutcome, CompiledAtlas};
pub use dc::{dc_sweep, DcSweep};
pub use jobspec::{decode_final_voltages, encode_final_voltages, CompiledSweep, NetlistSweepSpec};
pub use op::{operating_point, operating_point_with_guess, OpOptions, OpSolution};
pub use steady::{
    classify_tail, transient_steady, LockVerdict, SteadyDetector, SteadyOptions, SteadyRun,
    DEFAULT_WINDOWS,
};
pub use sweep::{PolicySweep, SweepEngine, SweepItem, TranSweep, Wavefront};
pub use tran::{transient, SolverKind, TranOptions};
