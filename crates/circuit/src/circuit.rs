//! Netlist construction.

use std::collections::HashMap;

use crate::device::{BjtModel, BjtPolarity, Device, MosPolarity, MosfetModel};
use crate::error::CircuitError;
use crate::iv::IvCurve;
use crate::wave::SourceWave;

/// Index of a circuit node. Node `0` is always ground.
pub type NodeId = usize;

/// Handle to a device within a [`Circuit`], returned by the `add_*` methods.
///
/// Device ids are needed to read branch currents from analysis results and
/// to designate sweep variables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DeviceId(pub(crate) usize);

impl DeviceId {
    /// The raw index of this device in insertion order.
    pub fn index(self) -> usize {
        self.0
    }
}

/// A circuit under construction: named nodes plus a device list.
///
/// ```
/// use shil_circuit::{Circuit, SourceWave};
///
/// let mut ckt = Circuit::new();
/// let vdd = ckt.node("vdd");
/// ckt.vsource(vdd, Circuit::GROUND, SourceWave::Dc(5.0));
/// ckt.resistor(vdd, Circuit::GROUND, 1e3);
/// assert_eq!(ckt.num_nodes(), 2); // ground + vdd
/// ```
#[derive(Debug, Clone, Default)]
pub struct Circuit {
    devices: Vec<Device>,
    node_names: Vec<String>,
    name_to_node: HashMap<String, NodeId>,
}

impl Circuit {
    /// The ground node (always node 0).
    pub const GROUND: NodeId = 0;

    /// Creates an empty circuit containing only the ground node.
    pub fn new() -> Self {
        Self::with_capacity(0, 0)
    }

    /// Like [`Circuit::new`], with room reserved for `nodes` named nodes
    /// besides ground and for `devices` devices, so a builder that knows
    /// its size does not regrow the tables. Node ids and device order are
    /// the same as with [`Circuit::new`].
    pub fn with_capacity(nodes: usize, devices: usize) -> Self {
        let mut c = Circuit {
            devices: Vec::with_capacity(devices),
            node_names: Vec::with_capacity(nodes + 1),
            name_to_node: HashMap::with_capacity(nodes + 1),
        };
        c.node_names.push("0".to_string());
        c.name_to_node.insert("0".to_string(), 0);
        c
    }

    /// Returns the node with the given name, creating it if necessary.
    pub fn node(&mut self, name: &str) -> NodeId {
        if let Some(&id) = self.name_to_node.get(name) {
            return id;
        }
        let id = self.node_names.len();
        self.node_names.push(name.to_string());
        self.name_to_node.insert(name.to_string(), id);
        id
    }

    /// Looks up a node by name without creating it.
    pub fn find_node(&self, name: &str) -> Option<NodeId> {
        self.name_to_node.get(name).copied()
    }

    /// The name of a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node_name(&self, id: NodeId) -> &str {
        &self.node_names[id]
    }

    /// Total number of nodes including ground.
    pub fn num_nodes(&self) -> usize {
        self.node_names.len()
    }

    /// The devices in insertion order.
    pub fn devices(&self) -> &[Device] {
        &self.devices
    }

    /// The device behind a [`DeviceId`].
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::UnknownDevice`] for stale ids.
    pub fn device(&self, id: DeviceId) -> Result<&Device, CircuitError> {
        self.devices
            .get(id.0)
            .ok_or(CircuitError::UnknownDevice { device: id.0 })
    }

    /// Replaces the waveform of a voltage or current source.
    ///
    /// Used by the DC sweep and by experiment drivers that re-run a circuit
    /// with different injection amplitudes/frequencies.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidRequest`] if the device is not an
    /// independent source, or [`CircuitError::UnknownDevice`].
    pub fn set_source_wave(&mut self, id: DeviceId, wave: SourceWave) -> Result<(), CircuitError> {
        match self.devices.get_mut(id.0) {
            Some(Device::Vsource { wave: w, .. }) | Some(Device::Isource { wave: w, .. }) => {
                *w = wave;
                Ok(())
            }
            Some(_) => Err(CircuitError::InvalidRequest(
                "set_source_wave target is not an independent source".into(),
            )),
            None => Err(CircuitError::UnknownDevice { device: id.0 }),
        }
    }

    /// Replaces the injection waveform of an [`Device::InjectedNonlinear`].
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidRequest`] for other device kinds or
    /// [`CircuitError::UnknownDevice`].
    pub fn set_injection_wave(
        &mut self,
        id: DeviceId,
        wave: SourceWave,
    ) -> Result<(), CircuitError> {
        match self.devices.get_mut(id.0) {
            Some(Device::InjectedNonlinear { injection, .. }) => {
                *injection = wave;
                Ok(())
            }
            Some(_) => Err(CircuitError::InvalidRequest(
                "set_injection_wave target is not an injected nonlinearity".into(),
            )),
            None => Err(CircuitError::UnknownDevice { device: id.0 }),
        }
    }

    /// Returns a copy of the circuit with every independent source waveform
    /// (voltage and current sources, plus series-injection waveforms of
    /// [`Device::InjectedNonlinear`]) multiplied by `factor`.
    ///
    /// This is the sweep-variable transform used by `shil-cli sweep` and the
    /// perf harnesses: one netlist, many drive strengths. Passive devices and
    /// nonlinearity curves are untouched.
    #[must_use]
    pub fn scale_sources(&self, factor: f64) -> Circuit {
        let mut scaled = self.clone();
        for d in &mut scaled.devices {
            match d {
                Device::Vsource { wave, .. } | Device::Isource { wave, .. } => {
                    *wave = wave.scaled(factor);
                }
                Device::InjectedNonlinear { injection, .. } => {
                    *injection = injection.scaled(factor);
                }
                _ => {}
            }
        }
        scaled
    }

    fn push(&mut self, d: Device) -> DeviceId {
        let id = DeviceId(self.devices.len());
        self.devices.push(d);
        id
    }

    fn check_node(&self, n: NodeId) -> Result<(), CircuitError> {
        if n < self.num_nodes() {
            Ok(())
        } else {
            Err(CircuitError::UnknownNode { node: n })
        }
    }

    /// Adds a resistor.
    ///
    /// # Panics
    ///
    /// Panics if `ohms` is not strictly positive or the nodes are unknown —
    /// netlist construction errors are programming errors.
    pub fn resistor(&mut self, a: NodeId, b: NodeId, ohms: f64) -> DeviceId {
        assert!(ohms > 0.0, "resistance must be positive, got {ohms}");
        self.check_node(a).expect("known node");
        self.check_node(b).expect("known node");
        self.push(Device::Resistor { a, b, ohms })
    }

    /// Adds a capacitor.
    ///
    /// # Panics
    ///
    /// Panics if `farads` is not strictly positive or the nodes are unknown.
    pub fn capacitor(&mut self, a: NodeId, b: NodeId, farads: f64) -> DeviceId {
        assert!(farads > 0.0, "capacitance must be positive, got {farads}");
        self.check_node(a).expect("known node");
        self.check_node(b).expect("known node");
        self.push(Device::Capacitor { a, b, farads })
    }

    /// Adds an inductor.
    ///
    /// # Panics
    ///
    /// Panics if `henries` is not strictly positive or the nodes are unknown.
    pub fn inductor(&mut self, a: NodeId, b: NodeId, henries: f64) -> DeviceId {
        assert!(henries > 0.0, "inductance must be positive, got {henries}");
        self.check_node(a).expect("known node");
        self.check_node(b).expect("known node");
        self.push(Device::Inductor { a, b, henries })
    }

    /// Adds an independent voltage source (`a` is the positive terminal).
    ///
    /// # Panics
    ///
    /// Panics if the nodes are unknown.
    pub fn vsource(&mut self, a: NodeId, b: NodeId, wave: SourceWave) -> DeviceId {
        self.check_node(a).expect("known node");
        self.check_node(b).expect("known node");
        self.push(Device::Vsource { a, b, wave })
    }

    /// Adds an independent current source driving current from `a` to `b`.
    ///
    /// # Panics
    ///
    /// Panics if the nodes are unknown.
    pub fn isource(&mut self, a: NodeId, b: NodeId, wave: SourceWave) -> DeviceId {
        self.check_node(a).expect("known node");
        self.check_node(b).expect("known node");
        self.push(Device::Isource { a, b, wave })
    }

    /// Adds a junction diode (anode `a`, cathode `b`).
    ///
    /// # Panics
    ///
    /// Panics if parameters are non-positive or the nodes are unknown.
    pub fn diode(
        &mut self,
        a: NodeId,
        b: NodeId,
        saturation_current: f64,
        ideality: f64,
    ) -> DeviceId {
        assert!(saturation_current > 0.0, "Is must be positive");
        assert!(ideality > 0.0, "ideality must be positive");
        self.check_node(a).expect("known node");
        self.check_node(b).expect("known node");
        self.push(Device::Diode {
            a,
            b,
            saturation_current,
            ideality,
        })
    }

    /// Adds an NPN bipolar transistor (collector, base, emitter).
    ///
    /// # Panics
    ///
    /// Panics if the nodes are unknown.
    pub fn npn(&mut self, c: NodeId, b: NodeId, e: NodeId, model: BjtModel) -> DeviceId {
        for n in [c, b, e] {
            self.check_node(n).expect("known node");
        }
        self.push(Device::Bjt {
            c,
            b,
            e,
            model,
            polarity: BjtPolarity::Npn,
        })
    }

    /// Adds a PNP bipolar transistor (collector, base, emitter).
    ///
    /// # Panics
    ///
    /// Panics if the nodes are unknown.
    pub fn pnp(&mut self, c: NodeId, b: NodeId, e: NodeId, model: BjtModel) -> DeviceId {
        for n in [c, b, e] {
            self.check_node(n).expect("known node");
        }
        self.push(Device::Bjt {
            c,
            b,
            e,
            model,
            polarity: BjtPolarity::Pnp,
        })
    }

    /// Adds an N-channel MOSFET (drain, gate, source; bulk at source).
    ///
    /// # Panics
    ///
    /// Panics if the nodes are unknown.
    pub fn nmos(&mut self, d: NodeId, g: NodeId, s: NodeId, model: MosfetModel) -> DeviceId {
        for n in [d, g, s] {
            self.check_node(n).expect("known node");
        }
        self.push(Device::Mosfet {
            d,
            g,
            s,
            model,
            polarity: MosPolarity::Nmos,
        })
    }

    /// Adds a P-channel MOSFET (drain, gate, source; bulk at source).
    ///
    /// # Panics
    ///
    /// Panics if the nodes are unknown.
    pub fn pmos(&mut self, d: NodeId, g: NodeId, s: NodeId, model: MosfetModel) -> DeviceId {
        for n in [d, g, s] {
            self.check_node(n).expect("known node");
        }
        self.push(Device::Mosfet {
            d,
            g,
            s,
            model,
            polarity: MosPolarity::Pmos,
        })
    }

    /// Adds a memoryless nonlinear resistor `i = f(v_a − v_b)`.
    ///
    /// # Panics
    ///
    /// Panics if the nodes are unknown.
    pub fn nonlinear(&mut self, a: NodeId, b: NodeId, curve: IvCurve) -> DeviceId {
        self.check_node(a).expect("known node");
        self.check_node(b).expect("known node");
        self.push(Device::Nonlinear { a, b, curve })
    }

    /// Couples two existing inductors with mutual inductance
    /// `M = k·√(L1·L2)`.
    ///
    /// # Panics
    ///
    /// Panics if either id is not an [`Device::Inductor`], if the two ids
    /// coincide, or if `k` is outside `0 < |k| < 1` — a passivity
    /// requirement (`|k| = 1` makes the inductance matrix singular).
    pub fn mutual(&mut self, l1: DeviceId, l2: DeviceId, k: f64) -> DeviceId {
        assert!(
            matches!(self.devices.get(l1.0), Some(Device::Inductor { .. })),
            "mutual coupling target {} is not an inductor",
            l1.0
        );
        assert!(
            matches!(self.devices.get(l2.0), Some(Device::Inductor { .. })),
            "mutual coupling target {} is not an inductor",
            l2.0
        );
        assert!(l1 != l2, "cannot couple an inductor to itself");
        assert!(
            k.abs() > 0.0 && k.abs() < 1.0,
            "coupling coefficient must satisfy 0 < |k| < 1, got {k}"
        );
        self.push(Device::MutualInductance {
            l1: l1.0,
            l2: l2.0,
            k,
        })
    }

    /// Adds a series-injection nonlinear element
    /// `i = f(v_a − v_b + v_inj(t))` — the paper's SHIL topology.
    ///
    /// # Panics
    ///
    /// Panics if the nodes are unknown.
    pub fn injected_nonlinear(
        &mut self,
        a: NodeId,
        b: NodeId,
        curve: IvCurve,
        injection: SourceWave,
    ) -> DeviceId {
        self.check_node(a).expect("known node");
        self.check_node(b).expect("known node");
        self.push(Device::InjectedNonlinear {
            a,
            b,
            curve,
            injection,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_interning() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let a2 = c.node("a");
        let b = c.node("b");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(c.find_node("a"), Some(a));
        assert_eq!(c.find_node("missing"), None);
        assert_eq!(c.node_name(a), "a");
        assert_eq!(c.node_name(Circuit::GROUND), "0");
    }

    #[test]
    fn device_ids_are_sequential() {
        let mut c = Circuit::new();
        let n = c.node("n");
        let r = c.resistor(n, 0, 50.0);
        let v = c.vsource(n, 0, SourceWave::Dc(1.0));
        assert_eq!(r.index(), 0);
        assert_eq!(v.index(), 1);
        assert!(c.device(r).is_ok());
        assert!(c.device(DeviceId(99)).is_err());
    }

    #[test]
    fn set_source_wave_guards_kind() {
        let mut c = Circuit::new();
        let n = c.node("n");
        let r = c.resistor(n, 0, 50.0);
        let v = c.vsource(n, 0, SourceWave::Dc(1.0));
        assert!(c.set_source_wave(v, SourceWave::Dc(2.0)).is_ok());
        assert!(c.set_source_wave(r, SourceWave::Dc(2.0)).is_err());
    }

    #[test]
    fn set_injection_wave_guards_kind() {
        let mut c = Circuit::new();
        let n = c.node("n");
        let inj = c.injected_nonlinear(n, 0, IvCurve::tanh(-1e-3, 20.0), SourceWave::Dc(0.0));
        let r = c.resistor(n, 0, 50.0);
        assert!(c
            .set_injection_wave(inj, SourceWave::sine(0.03, 1e6, 0.0))
            .is_ok());
        assert!(c.set_injection_wave(r, SourceWave::Dc(0.0)).is_err());
    }

    #[test]
    fn scale_sources_touches_only_sources() {
        let mut c = Circuit::new();
        let n = c.node("n");
        c.resistor(n, 0, 50.0);
        let v = c.vsource(n, 0, SourceWave::Dc(1.0));
        let i = c.isource(n, 0, SourceWave::sine(2e-3, 1e6, 0.0));
        let inj = c.injected_nonlinear(n, 0, IvCurve::tanh(-1e-3, 20.0), SourceWave::Dc(0.5));
        let s = c.scale_sources(3.0);
        assert!(matches!(
            s.device(v).unwrap(),
            Device::Vsource { wave: SourceWave::Dc(x), .. } if *x == 3.0
        ));
        assert!(matches!(
            s.device(i).unwrap(),
            Device::Isource { wave: SourceWave::Sin { amplitude, .. }, .. } if *amplitude == 6e-3
        ));
        assert!(matches!(
            s.device(inj).unwrap(),
            Device::InjectedNonlinear { injection: SourceWave::Dc(x), .. } if *x == 1.5
        ));
        assert!(matches!(
            s.devices()[0],
            Device::Resistor { ohms, .. } if ohms == 50.0
        ));
        // The original is untouched.
        assert!(matches!(
            c.device(v).unwrap(),
            Device::Vsource { wave: SourceWave::Dc(x), .. } if *x == 1.0
        ));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn resistor_rejects_zero_ohms() {
        let mut c = Circuit::new();
        let n = c.node("n");
        c.resistor(n, 0, 0.0);
    }
}
