//! Metric records, output checks, and the seed stream.

use spinfer_obs::json::Value;

/// Which clock a metric reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    /// Host wall-clock: how fast the simulator runs. Noisy.
    Host,
    /// The simulated GPU or fleet: what the reproduction claims.
    /// Deterministic per seed.
    Sim,
    /// An exact count or size, on no clock.
    Count,
}

impl Clock {
    pub fn label(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Sim => "sim",
            Clock::Count => "count",
        }
    }
}

#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub clock: Clock,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str, clock: Clock) -> Self {
        Metric {
            name: name.to_string(),
            value,
            unit,
            clock,
        }
    }
}

/// `{"name": {"value": v, "unit": u}, …}` in the given order.
pub fn metrics_json(metrics: &[Metric], with_clock: bool) -> Value {
    metrics.iter().fold(Value::obj(), |o, m| {
        let mut v = Value::obj()
            .set("value", Value::Num(m.value))
            .set("unit", Value::Str(m.unit.to_string()));
        if with_clock {
            v = v.set("clock", Value::Str(m.clock.label().to_string()));
        }
        o.set(&m.name, v)
    })
}

/// Output checks: each is one attempted operation, and each failure is
/// a failed one.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// SplitMix64: the benchmark's own seed stream for inputs the program
/// does not generate itself (checked rows, prompts).
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}
