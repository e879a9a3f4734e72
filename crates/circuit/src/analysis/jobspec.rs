//! Declarative sweep-job specifications.
//!
//! A [`NetlistSweepSpec`] is the serializable description of a source-scale
//! transient sweep over a netlist — the unit of work both `shil-cli sweep`
//! and the `shil-serve` job service execute. Compiling it front-loads every
//! input error (netlist parse, unknown probe, bad grid, bad scales) into a
//! [`CircuitError`] so callers can reject a job at submission time with a
//! precise diagnostic; the resulting [`CompiledSweep`] then runs through
//! the policy-driven [`SweepEngine`] with checkpoint payloads that restore
//! bit-identically after a crash.
//!
//! The spec's [`CompiledSweep::fingerprint`] binds the checkpoint file to
//! the *exact* inputs — netlist text, time grid, scale factors — so a
//! resumed job can never silently reuse records from a different sweep.

use shil_runtime::{checkpoint, Budget, CheckpointFile, SweepPolicy};

use crate::analysis::{transient, PolicySweep, SweepEngine, TranOptions};
use crate::circuit::Circuit;
use crate::error::CircuitError;
use crate::netlist;

/// A source-scale transient sweep over a netlist, described by value.
#[derive(Debug, Clone, PartialEq)]
pub struct NetlistSweepSpec {
    /// The circuit, as netlist text (see [`crate::netlist`]).
    pub netlist: String,
    /// Transient time step, seconds.
    pub dt: f64,
    /// Transient stop time, seconds.
    pub stop: f64,
    /// Node names whose final voltage each item reports.
    pub probes: Vec<String>,
    /// Source scale factors — one sweep item per entry.
    pub scales: Vec<f64>,
}

impl NetlistSweepSpec {
    /// Parses and validates the spec into a runnable [`CompiledSweep`].
    ///
    /// # Errors
    ///
    /// [`CircuitError::InvalidParameter`] (with line/column context) for a
    /// malformed netlist; [`CircuitError::InvalidRequest`] for an unknown
    /// probe node, an empty probe or scale list, a non-finite scale, or a
    /// non-positive time grid.
    pub fn compile(&self) -> Result<CompiledSweep, CircuitError> {
        let invalid = |msg: String| CircuitError::InvalidRequest(msg);
        if self.dt <= 0.0 || !self.dt.is_finite() {
            return Err(invalid(format!(
                "dt must be positive and finite, got {}",
                self.dt
            )));
        }
        if self.stop <= 0.0 || !self.stop.is_finite() {
            return Err(invalid(format!(
                "stop must be positive and finite, got {}",
                self.stop
            )));
        }
        if self.probes.is_empty() {
            return Err(invalid("at least one probe node is required".into()));
        }
        if self.scales.is_empty() {
            return Err(invalid("at least one scale factor is required".into()));
        }
        if let Some(s) = self.scales.iter().find(|s| !s.is_finite()) {
            return Err(invalid(format!("scale factors must be finite, got {s}")));
        }
        let circuit = netlist::parse(&self.netlist)?;
        let mut probe_ids = Vec::with_capacity(self.probes.len());
        for p in &self.probes {
            match circuit.find_node(p) {
                Some(id) => probe_ids.push(id),
                None => return Err(invalid(format!("unknown probe node `{p}`"))),
            }
        }
        Ok(CompiledSweep {
            spec: self.clone(),
            circuit,
            probe_ids,
        })
    }
}

/// A validated, runnable sweep: the parsed circuit plus resolved probes.
#[derive(Debug, Clone)]
pub struct CompiledSweep {
    spec: NetlistSweepSpec,
    circuit: Circuit,
    probe_ids: Vec<usize>,
}

impl CompiledSweep {
    /// The spec this sweep was compiled from.
    pub fn spec(&self) -> &NetlistSweepSpec {
        &self.spec
    }

    /// The parsed circuit.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// Number of sweep items (one per scale factor).
    pub fn len(&self) -> usize {
        self.spec.scales.len()
    }

    /// Whether the sweep has no items (unreachable after `compile`, which
    /// rejects empty scale lists — present for API completeness).
    pub fn is_empty(&self) -> bool {
        self.spec.scales.is_empty()
    }

    /// Digest binding a checkpoint to this sweep's exact inputs: netlist
    /// text, time grid and scale factors. Any change to any of them yields
    /// a different fingerprint, so stale checkpoint records are rejected at
    /// [`CheckpointFile::open`] instead of silently corrupting a resume.
    pub fn fingerprint(&self) -> String {
        let mut inputs = vec![self.spec.dt, self.spec.stop];
        inputs.extend_from_slice(&self.spec.scales);
        let label = format!("shil-circuit/jobspec\n{}", self.spec.netlist);
        checkpoint::fingerprint(&label, &inputs)
    }

    /// Runs the sweep under `policy`/`budget` on `engine`, optionally
    /// checkpointed. Each item's value is the vector of final probe
    /// voltages, in probe order; checkpoint payloads are the exact voltage
    /// bits (see [`encode_final_voltages`]), so a resumed run reproduces
    /// the uninterrupted result bit-for-bit.
    pub fn run(
        &self,
        engine: &SweepEngine,
        policy: &SweepPolicy,
        budget: &Budget,
        checkpoint: Option<&CheckpointFile>,
    ) -> PolicySweep<Vec<f64>> {
        engine.run_checkpointed(
            &self.spec.scales,
            policy,
            budget,
            checkpoint,
            |_, &scale, item_budget| {
                let scaled = self.circuit.scale_sources(scale);
                let opts = TranOptions::new(self.spec.dt, self.spec.stop)
                    .with_budget(item_budget.clone())
                    .with_step_retry_budget(policy.step_retry_budget);
                let res = transient(&scaled, &opts)?;
                let finals: Vec<f64> = self
                    .probe_ids
                    .iter()
                    .map(|&id| *res.node_voltage(id).expect("probed node").last().unwrap())
                    .collect();
                Ok((finals, res.report))
            },
            |finals: &Vec<f64>| encode_final_voltages(finals),
            decode_final_voltages,
        )
    }
}

/// Checkpoint payload for a sweep item: the exact bits of each probe's
/// final voltage as 16-hex-digit words, `:`-joined, so restored values are
/// bit-identical to freshly computed ones.
pub fn encode_final_voltages(finals: &[f64]) -> String {
    finals
        .iter()
        .map(|v| format!("{:016x}", v.to_bits()))
        .collect::<Vec<_>>()
        .join(":")
}

/// Inverse of [`encode_final_voltages`]; `None` for malformed payloads
/// (which the sweep engine treats as "not restored" and recomputes).
pub fn decode_final_voltages(payload: &str) -> Option<Vec<f64>> {
    payload
        .split(':')
        .map(|s| u64::from_str_radix(s, 16).ok().map(f64::from_bits))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn divider_spec() -> NetlistSweepSpec {
        NetlistSweepSpec {
            netlist: "V1 in 0 DC 10\nR1 in out 3k\nR2 out 0 1k\nC1 out 0 1n\n.end\n".into(),
            dt: 1e-7,
            stop: 2e-5,
            probes: vec!["out".into()],
            scales: vec![0.5, 1.0, 2.0],
        }
    }

    #[test]
    fn compile_rejects_bad_specs_up_front() {
        let mut s = divider_spec();
        s.dt = 0.0;
        assert!(s.compile().is_err());
        let mut s = divider_spec();
        s.stop = f64::NAN;
        assert!(s.compile().is_err());
        let mut s = divider_spec();
        s.probes = vec!["nope".into()];
        assert!(matches!(s.compile(), Err(CircuitError::InvalidRequest(_))));
        let mut s = divider_spec();
        s.probes.clear();
        assert!(s.compile().is_err());
        let mut s = divider_spec();
        s.scales = vec![1.0, f64::INFINITY];
        assert!(s.compile().is_err());
        let mut s = divider_spec();
        s.netlist = "R1 a 0 abc\n".into();
        let e = s.compile().unwrap_err();
        assert!(e.to_string().contains("line 1, col 8"), "{e}");
    }

    #[test]
    fn fingerprint_binds_every_input() {
        let base = divider_spec().compile().unwrap().fingerprint();
        let mut s = divider_spec();
        s.dt = 2e-7;
        assert_ne!(s.compile().unwrap().fingerprint(), base);
        let mut s = divider_spec();
        s.scales = vec![0.5, 1.0];
        assert_ne!(s.compile().unwrap().fingerprint(), base);
        let mut s = divider_spec();
        s.netlist = s.netlist.replace("3k", "4k");
        assert_ne!(s.compile().unwrap().fingerprint(), base);
        assert_eq!(divider_spec().compile().unwrap().fingerprint(), base);
    }

    #[test]
    fn run_reports_final_probe_voltages() {
        let sweep = divider_spec().compile().unwrap();
        let result = sweep.run(
            &SweepEngine::serial(),
            &SweepPolicy::default(),
            &Budget::unlimited(),
            None,
        );
        assert_eq!(result.ok_count(), 3);
        // The divider settles to 2.5 V at scale 1; scales multiply sources.
        let expect = [1.25, 2.5, 5.0];
        for (item, want) in result.items.iter().zip(expect) {
            let got = item.value.as_ref().unwrap()[0];
            assert!((got - want).abs() < 1e-3, "got {got}, want {want}");
        }
    }

    #[test]
    fn voltage_payloads_round_trip_bit_exactly() {
        let vals = vec![1.0, -0.0, f64::MIN_POSITIVE, 2.5e-7];
        let decoded = decode_final_voltages(&encode_final_voltages(&vals)).unwrap();
        assert_eq!(vals.len(), decoded.len());
        for (a, b) in vals.iter().zip(&decoded) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert!(decode_final_voltages("zz").is_none());
    }
}
