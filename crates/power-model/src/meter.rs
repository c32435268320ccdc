//! Per-component energy metering.
//!
//! [`EnergyMeter`] is the simulation's ground truth: it integrates the
//! node's piecewise-constant power over simulated time, split by component.
//! The `powerpack` crate's ACPI/Baytech pollers *sample* this ground truth
//! with the paper's coarse refresh rates; experiments then reconstruct
//! energy the way the paper did, and tests can quantify the measurement
//! error that methodology incurs.

use sim_core::SimTime;

use crate::activity::CpuActivity;
use crate::op_point::OperatingPoint;
use crate::params::NodePowerParams;

/// Power-drawing component of a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Component {
    /// CPU dynamic (switching) power.
    CpuDynamic,
    /// CPU static (leakage) power.
    CpuStatic,
    /// Constant system base (chipset, regulators, disk idle...).
    Base,
    /// DRAM interface activity above refresh.
    Memory,
    /// Network interface activity.
    Nic,
    /// DVFS transition losses (counted as impulses, not a rate).
    Transition,
}

impl Component {
    /// All components, in report order.
    pub const ALL: [Component; 6] = [
        Component::CpuDynamic,
        Component::CpuStatic,
        Component::Base,
        Component::Memory,
        Component::Nic,
        Component::Transition,
    ];
}

/// Energy totals per component, joules.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EnergyReport {
    /// CPU switching energy.
    pub cpu_dynamic_j: f64,
    /// CPU leakage energy.
    pub cpu_static_j: f64,
    /// System base energy.
    pub base_j: f64,
    /// DRAM activity energy.
    pub memory_j: f64,
    /// NIC activity energy.
    pub nic_j: f64,
    /// DVFS transition energy.
    pub transition_j: f64,
}

impl EnergyReport {
    /// Sum of all components.
    pub fn total_j(&self) -> f64 {
        self.cpu_dynamic_j
            + self.cpu_static_j
            + self.base_j
            + self.memory_j
            + self.nic_j
            + self.transition_j
    }

    /// Energy attributed to one component.
    pub fn component(&self, c: Component) -> f64 {
        match c {
            Component::CpuDynamic => self.cpu_dynamic_j,
            Component::CpuStatic => self.cpu_static_j,
            Component::Base => self.base_j,
            Component::Memory => self.memory_j,
            Component::Nic => self.nic_j,
            Component::Transition => self.transition_j,
        }
    }

    /// Element-wise sum, for aggregating across nodes.
    pub fn add(&self, other: &EnergyReport) -> EnergyReport {
        EnergyReport {
            cpu_dynamic_j: self.cpu_dynamic_j + other.cpu_dynamic_j,
            cpu_static_j: self.cpu_static_j + other.cpu_static_j,
            base_j: self.base_j + other.base_j,
            memory_j: self.memory_j + other.memory_j,
            nic_j: self.nic_j + other.nic_j,
            transition_j: self.transition_j + other.transition_j,
        }
    }
}

/// The integrated components, in [`EnergyMeter::watts`] order.
const CPU_DYNAMIC: usize = 0;
const CPU_STATIC: usize = 1;
const BASE: usize = 2;
const MEMORY: usize = 3;
const NIC: usize = 4;
const RATES: usize = 5;

/// Integrates one node's power, split by component.
///
/// The rate components change together (every input change re-applies
/// all of them), so they share one clock: each change closes every
/// component's open segment with the same `dt`, exactly as five
/// independent time-weighted integrators would.
#[derive(Debug)]
pub struct EnergyMeter {
    params: NodePowerParams,
    /// Start of the open segment.
    last_change: SimTime,
    /// Per-component draw over the open segment, watts.
    watts: [f64; RATES],
    /// Per-component energy up to `last_change`, joules.
    joules: [f64; RATES],
    transition_j: f64,
    transitions: u64,
    // Current device state, re-applied whenever any input changes.
    op: OperatingPoint,
    activity: CpuActivity,
    /// When set, overrides the activity table's dynamic-power factor
    /// (blended compute segments with L2-stall cycles).
    custom_factor: Option<f64>,
    mem_active: bool,
    nic_active: bool,
}

impl EnergyMeter {
    /// A meter starting at `start` with the CPU halted at `op`.
    pub fn new(start: SimTime, params: NodePowerParams, op: OperatingPoint) -> Self {
        params.validate();
        let activity = CpuActivity::Halt;
        let mut m = EnergyMeter {
            last_change: start,
            watts: [0.0; RATES],
            joules: [0.0; RATES],
            transition_j: 0.0,
            transitions: 0,
            params,
            op,
            activity,
            custom_factor: None,
            mem_active: false,
            nic_active: false,
        };
        m.reapply(start);
        m
    }

    #[inline]
    fn dyn_factor(&self) -> f64 {
        self.custom_factor
            .unwrap_or_else(|| self.params.cpu.activity.factor(self.activity))
    }

    /// Seconds from the open segment's start to `now`.
    #[inline]
    fn open_secs(&self, now: SimTime) -> f64 {
        // Always-on: `since` saturates, so a backwards `now` would
        // silently drop the open segment from the integrals in release
        // builds.
        assert!(
            now >= self.last_change,
            "time went backwards: {now:?} < {:?}",
            self.last_change
        );
        now.since(self.last_change).as_secs_f64()
    }

    /// Close the open segment at `now` and start a new one at the
    /// current device state's draw.
    #[inline]
    fn reapply(&mut self, now: SimTime) {
        let dt = self.open_secs(now);
        // Several device changes often land on one instant; adding
        // `watts * 0.0` would leave every integral unchanged.
        if dt > 0.0 {
            for (joules, watts) in self.joules.iter_mut().zip(self.watts) {
                *joules += watts * dt;
            }
        }
        self.last_change = now;
        self.watts[CPU_DYNAMIC] = self
            .params
            .cpu
            .dynamic_power_with_factor(self.op, self.dyn_factor());
        self.watts[CPU_STATIC] = self.params.cpu.static_power(self.op);
        self.watts[BASE] = self.params.base_w;
        self.watts[MEMORY] = if self.mem_active {
            self.params.mem_active_w
        } else {
            0.0
        };
        self.watts[NIC] = if self.nic_active {
            self.params.nic_active_w
        } else {
            0.0
        };
    }

    /// CPU moved to a new operating point at `now`; charges the transition
    /// energy impulse.
    pub fn set_operating_point(&mut self, now: SimTime, op: OperatingPoint) {
        if (op.freq_hz - self.op.freq_hz).abs() > f64::EPSILON {
            self.transition_j += self.params.transition_energy_j;
            self.transitions += 1;
        }
        self.op = op;
        self.reapply(now);
    }

    /// Move to `op` at `now` *without* charging a transition impulse —
    /// boot-time setup (the kernel picks the initial point before the
    /// workload starts, outside the measured window).
    pub fn jam_operating_point(&mut self, now: SimTime, op: OperatingPoint) {
        self.op = op;
        self.reapply(now);
    }

    /// CPU activity state changed at `now` (clears any blended factor).
    #[inline]
    pub fn set_activity(&mut self, now: SimTime, activity: CpuActivity) {
        self.activity = activity;
        self.custom_factor = None;
        self.reapply(now);
    }

    /// Enter `Active` with an explicit blended dynamic-power factor —
    /// compute segments mixing execution with L2-stall cycles.
    #[inline]
    pub fn set_active_blended(&mut self, now: SimTime, factor: f64) {
        assert!(
            factor.is_finite() && (0.0..=1.5).contains(&factor),
            "bad factor {factor}"
        );
        self.activity = CpuActivity::Active;
        self.custom_factor = Some(factor);
        self.reapply(now);
    }

    /// DRAM interface became active/inactive at `now`.
    #[inline]
    pub fn set_mem_active(&mut self, now: SimTime, active: bool) {
        self.mem_active = active;
        self.reapply(now);
    }

    /// NIC became active/inactive at `now`.
    #[inline]
    pub fn set_nic_active(&mut self, now: SimTime, active: bool) {
        self.nic_active = active;
        self.reapply(now);
    }

    /// Current operating point.
    pub fn operating_point(&self) -> OperatingPoint {
        self.op
    }

    /// Current activity state.
    pub fn activity(&self) -> CpuActivity {
        self.activity
    }

    /// Instantaneous whole-node power draw, watts.
    pub fn power_now(&self) -> f64 {
        self.params.base_w
            + self
                .params
                .cpu
                .dynamic_power_with_factor(self.op, self.dyn_factor())
            + self.params.cpu.static_power(self.op)
            + if self.mem_active {
                self.params.mem_active_w
            } else {
                0.0
            }
            + if self.nic_active {
                self.params.nic_active_w
            } else {
                0.0
            }
    }

    /// Number of DVFS transitions charged so far.
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// Energy consumed through `now`, per component.
    pub fn report_at(&self, now: SimTime) -> EnergyReport {
        let dt = self.open_secs(now);
        let j = |c: usize| self.joules[c] + self.watts[c] * dt;
        EnergyReport {
            cpu_dynamic_j: j(CPU_DYNAMIC),
            cpu_static_j: j(CPU_STATIC),
            base_j: j(BASE),
            memory_j: j(MEMORY),
            nic_j: j(NIC),
            transition_j: self.transition_j,
        }
    }

    /// Total joules consumed through `now`.
    pub fn total_at(&self, now: SimTime) -> f64 {
        self.report_at(now).total_j()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op_point::DvfsLadder;
    use sim_core::SimDuration;

    fn ladder() -> DvfsLadder {
        DvfsLadder::pentium_m_1400()
    }

    fn meter() -> EnergyMeter {
        EnergyMeter::new(
            SimTime::ZERO,
            NodePowerParams::inspiron_8600(),
            ladder().point(4),
        )
    }

    #[test]
    fn halted_node_consumes_base_plus_idle_cpu() {
        let m = meter();
        let t = SimTime::from_secs(10);
        let r = m.report_at(t);
        assert!((r.base_j - 80.0).abs() < 1e-9); // 8 W base for 10 s
        assert!(r.cpu_dynamic_j > 0.0); // halt factor is small but nonzero
        assert!(r.cpu_dynamic_j < 25.0);
        assert_eq!(r.memory_j, 0.0);
        assert_eq!(r.nic_j, 0.0);
        assert_eq!(r.transition_j, 0.0);
    }

    #[test]
    fn active_cpu_dominates_when_fast() {
        let mut m = meter();
        m.set_activity(SimTime::ZERO, CpuActivity::Active);
        let t = SimTime::from_secs(1);
        let r = m.report_at(t);
        assert!((r.cpu_dynamic_j - 21.0).abs() < 1e-6, "{}", r.cpu_dynamic_j);
        assert!((r.cpu_static_j - 1.484).abs() < 1e-6);
    }

    #[test]
    fn transition_charges_impulse_once_per_change() {
        let mut m = meter();
        let l = ladder();
        m.set_operating_point(SimTime::from_secs(1), l.point(0));
        m.set_operating_point(SimTime::from_secs(2), l.point(0)); // same -> no charge
        m.set_operating_point(SimTime::from_secs(3), l.point(4));
        assert_eq!(m.transitions(), 2);
        let r = m.report_at(SimTime::from_secs(4));
        assert!((r.transition_j - 2.0 * 1.2e-3).abs() < 1e-12);
    }

    #[test]
    fn slower_point_draws_less_power() {
        let mut m = meter();
        m.set_activity(SimTime::ZERO, CpuActivity::Active);
        let p_fast = m.power_now();
        m.set_operating_point(SimTime::from_secs(1), ladder().point(0));
        let p_slow = m.power_now();
        assert!(p_slow < p_fast - 15.0, "fast {p_fast} slow {p_slow}");
    }

    #[test]
    fn memory_and_nic_add_their_draw() {
        let mut m = meter();
        let p0 = m.power_now();
        m.set_mem_active(SimTime::ZERO, true);
        let p1 = m.power_now();
        m.set_nic_active(SimTime::ZERO, true);
        let p2 = m.power_now();
        assert!((p1 - p0 - 1.8).abs() < 1e-12);
        assert!((p2 - p1 - 0.9).abs() < 1e-12);
        m.set_mem_active(SimTime::from_secs(5), false);
        let r = m.report_at(SimTime::from_secs(5));
        assert!((r.memory_j - 9.0).abs() < 1e-9);
    }

    #[test]
    fn report_totals_are_consistent() {
        let mut m = meter();
        m.set_activity(SimTime::ZERO, CpuActivity::BusyWait);
        m.set_operating_point(SimTime::from_secs(2), ladder().point(1));
        let t = SimTime::from_secs(7);
        let r = m.report_at(t);
        let sum: f64 = Component::ALL.iter().map(|c| r.component(*c)).sum();
        assert!((sum - r.total_j()).abs() < 1e-9);
        assert!((m.total_at(t) - r.total_j()).abs() < 1e-12);
    }

    #[test]
    fn energy_reports_add_elementwise() {
        let m = meter();
        let r = m.report_at(SimTime::from_secs(1));
        let doubled = r.add(&r);
        assert!((doubled.total_j() - 2.0 * r.total_j()).abs() < 1e-9);
    }

    #[test]
    fn shared_clock_matches_independent_integrators_bitwise() {
        // Five independent time-weighted integrators fed the same draws
        // at the same instants give the same floats, bit for bit.
        use sim_core::TimeWeighted;
        let mut m = meter();
        let mut reference: Vec<TimeWeighted> = m
            .watts
            .iter()
            .map(|&w| TimeWeighted::new(SimTime::ZERO, w))
            .collect();
        let l = ladder();
        let mut now = SimTime::ZERO;
        for step in 1..200u64 {
            now += SimDuration::from_micros(step * step * 37 % 9_973);
            match step % 5 {
                0 => m.set_activity(now, CpuActivity::BusyWait),
                1 => m.set_active_blended(now, 0.3 + (step % 7) as f64 / 10.0),
                2 => m.set_mem_active(now, step % 3 == 0),
                3 => m.set_nic_active(now, step % 4 == 0),
                _ => m.set_operating_point(now, l.point((step % 5) as usize)),
            }
            for (tw, &w) in reference.iter_mut().zip(&m.watts) {
                tw.set(now, w);
            }
            let end = now + SimDuration::from_micros(500);
            let r = m.report_at(end);
            let got = [
                r.cpu_dynamic_j,
                r.cpu_static_j,
                r.base_j,
                r.memory_j,
                r.nic_j,
            ];
            for (tw, g) in reference.iter().zip(got) {
                assert_eq!(tw.integral_at(end).to_bits(), g.to_bits());
            }
        }
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    fn meter_rejects_backwards_time() {
        let mut m = meter();
        m.set_mem_active(SimTime::from_secs(10), true);
        m.set_mem_active(SimTime::from_secs(5), false);
    }

    #[test]
    fn power_now_matches_integral_slope() {
        let mut m = meter();
        m.set_activity(SimTime::ZERO, CpuActivity::Active);
        m.set_mem_active(SimTime::ZERO, true);
        let p = m.power_now();
        let dt = SimDuration::from_secs(3);
        let e = m.total_at(SimTime::ZERO + dt);
        assert!((e - p * 3.0).abs() < 1e-6, "e={e} p={p}");
    }
}
