//! SpMM section: generate → TCA-BME encode (FP16, INT8) → serialize →
//! load the containers back → launch the loaded containers.
//!
//! Layers: `gpu_sim` (input synthesis, the launch's counters and
//! simulated time) and `core` (encode, serializer, the `spmm` kernels).

use crate::report::{Checks, Clock, Metric};
use crate::spans::{last, named, Span, Tracer};
use crate::stats::median;
use gpu_sim::kernel::LaunchChain;
use gpu_sim::matrix::{checksum_f32, random_dense, random_sparse, DenseMatrix, ValueDist};
use gpu_sim::spec::GpuSpec;
use spinfer_core::serialize::{from_bytes, from_bytes_int8, to_bytes, to_bytes_int8};
use spinfer_core::{SpinferSpmm, SpinferSpmmInt8, TcaBme, TcaBmeInt8};

#[derive(Clone, Copy, Debug)]
pub struct SpmmSize {
    pub m: usize,
    pub k: usize,
    pub n: usize,
    pub sparsity: f64,
    /// Output rows checked against the dense reference per launch.
    pub check_rows: usize,
    /// Launch pairs per round: enough that a probe-size section's
    /// median has samples to pass over a stall.
    pub per_round: usize,
}

/// Generated inputs plus the dense reference on the checked rows.
pub struct SpmmInputs {
    size: SpmmSize,
    w: DenseMatrix,
    x: DenseMatrix,
    rows: Vec<usize>,
    /// `Σ_k w·x` per checked row and column, in f64.
    reference: Vec<f64>,
    /// `Σ_k |w·x|` per checked row and column: scales the f32
    /// accumulation error bound.
    abs_sum: Vec<f64>,
}

/// The containers loaded back from their serialized bytes.
pub struct Loaded {
    fp16: TcaBme,
    int8: TcaBmeInt8,
}

/// One pair of launches.
#[derive(Clone, Debug, PartialEq)]
pub struct SpmmSample {
    pub fp16_s: f64,
    pub int8_s: f64,
    pub sim_fp16_us: f64,
    pub sim_int8_us: f64,
    pub checksums: (u64, u64),
}

/// Unit roundoff of f32 accumulation.
const F32_U: f64 = 1.0 / (1u64 << 24) as f64;

impl SpmmInputs {
    /// Weights from `seed`, X from `seed ^ (n << 32)`: the program's own
    /// hero-point seeding, so seed 0 reproduces its published numbers.
    pub fn generate(size: SpmmSize, seed: u64, tr: &Tracer) -> Self {
        let (w, _) = tr.span("gpu_sim.matrix.generate", || {
            random_sparse(size.m, size.k, size.sparsity, ValueDist::Uniform, seed)
        });
        let (x, _) = tr.span("gpu_sim.matrix.generate", || {
            random_dense(
                size.k,
                size.n,
                ValueDist::Uniform,
                seed ^ (size.n as u64).rotate_left(32),
            )
        });
        let mut rng = crate::report::SplitMix(seed ^ 0x005e_ed0f_c4ec_4b0e);
        let rows: Vec<usize> = (0..size.check_rows)
            .map(|_| (rng.next() % size.m as u64) as usize)
            .collect();
        let xf: Vec<f64> = (0..size.k * size.n)
            .map(|i| f64::from(x.get(i / size.n, i % size.n).to_f32()))
            .collect();
        let mut reference = vec![0.0; rows.len() * size.n];
        let mut abs_sum = vec![0.0; rows.len() * size.n];
        for (ri, &r) in rows.iter().enumerate() {
            for c in 0..size.k {
                let wv = f64::from(w.get(r, c).to_f32());
                if wv == 0.0 {
                    continue;
                }
                for j in 0..size.n {
                    let p = wv * xf[c * size.n + j];
                    reference[ri * size.n + j] += p;
                    abs_sum[ri * size.n + j] += p.abs();
                }
            }
        }
        SpmmInputs {
            size,
            w,
            x,
            rows,
            reference,
            abs_sum,
        }
    }

    pub fn per_round(&self) -> usize {
        self.size.per_round
    }

    /// Encode, serialize and load both precisions; returns the loaded
    /// containers and the host seconds the timed calls took. With
    /// `verify`, each loaded container must re-serialize to the bytes it
    /// was loaded from.
    pub fn setup(&self, tr: &Tracer, verify: bool, checks: &mut Checks) -> (Loaded, f64) {
        let (fp16, t_enc16) = tr.span_with(
            "core.tca_bme.encode_fp16",
            || TcaBme::encode(&self.w),
            |e| vec![("compression_ratio", e.compression_ratio())],
        );
        let (int8, t_enc8) = tr.span("core.tca_bme.encode_int8", || fp16.quantize_int8());
        let bytes_attr = |b: &Vec<u8>| vec![("bytes", b.len() as f64)];
        let (b16, t_ser16) = tr.span_with(
            "core.serialize.to_bytes_fp16",
            || to_bytes(&fp16),
            bytes_attr,
        );
        let (b8, t_ser8) = tr.span_with(
            "core.serialize.to_bytes_int8",
            || to_bytes_int8(&int8),
            bytes_attr,
        );
        drop((fp16, int8));
        let (l16, t_load16) = tr.span("core.serialize.from_bytes_fp16", || from_bytes(&b16));
        let (l8, t_load8) = tr.span("core.serialize.from_bytes_int8", || from_bytes_int8(&b8));
        let (Ok(fp16), Ok(int8)) = (l16, l8) else {
            panic!("a container the serializer just wrote failed to load");
        };
        if verify {
            checks.check(to_bytes(&fp16) == b16, || {
                "loaded FP16 container re-serializes to different bytes".to_string()
            });
            checks.check(to_bytes_int8(&int8) == b8, || {
                "loaded INT8 container re-serializes to different bytes".to_string()
            });
        }
        let secs = t_enc16 + t_enc8 + t_ser16 + t_ser8 + t_load16 + t_load8;
        (Loaded { fp16, int8 }, secs)
    }

    /// Launches both loaded containers on `spec` and checks the outputs.
    pub fn run(&self, spec: &GpuSpec, c: &Loaded, tr: &Tracer, checks: &mut Checks) -> SpmmSample {
        let nnz = c.fp16.nnz as f64;
        let (r16, fp16_s) = tr.span_with(
            "core.spmm.launch_fp16",
            || SpinferSpmm::new().run(spec, &c.fp16, &self.x),
            |r| launch_attrs(&r.chain, nnz),
        );
        let out16 = r16
            .output
            .as_ref()
            .expect("functional launch returns output");
        self.check_fp16(out16, checks);
        let (r8, int8_s) = tr.span_with(
            "core.spmm.launch_int8",
            || SpinferSpmmInt8::new().run(spec, &c.int8, &self.x),
            |r| launch_attrs(&r.chain, nnz),
        );
        let out8 = r8
            .output
            .as_ref()
            .expect("functional launch returns output");
        self.check_int8(out8, &c.int8, checks);
        SpmmSample {
            fp16_s,
            int8_s,
            sim_fp16_us: r16.time_us(),
            sim_int8_us: r8.time_us(),
            checksums: (checksum_f32(out16), checksum_f32(out8)),
        }
    }

    /// FP16: within the f32 accumulation bound `γ_K · Σ|w·x|` of the
    /// dense reference on every checked row.
    fn check_fp16(&self, out: &[f32], checks: &mut Checks) {
        let gamma = self.size.k as f64 * F32_U;
        let worst = self.worst_excess(out, |i| gamma * self.abs_sum[i]);
        checks.check(worst <= 0.0, || {
            format!("FP16 output exceeds its error bound by {worst:e}")
        });
    }

    /// INT8: within the quantisation bound. With `ŵ = w + δw`,
    /// `|δw| ≤ s_w/2` per GroupTile and `x̂ = x + δx`, `|δx| ≤ s_x/2`,
    /// `|Σ ŵx̂ − Σ wx| ≤ Σ (s_w/2)|x| + (|w| + s_w/2)(s_x/2)`, plus the
    /// f32 accumulation bound on the larger of the two products.
    fn check_int8(&self, out: &[f32], q: &TcaBmeInt8, checks: &mut Checks) {
        let n = self.size.n;
        let x_max = (0..self.size.k * n)
            .map(|i| f64::from(self.x.get(i / n, i % n).to_f32()).abs())
            .fold(0.0, f64::max);
        let half_sx = if x_max > 0.0 {
            0.5 * x_max / 127.0
        } else {
            0.5
        };
        let cfg = q.tiles.config;
        let gtiles_x = q.tiles.gtiles_x();
        let gamma = self.size.k as f64 * F32_U;
        let mut quant = vec![0.0; self.rows.len() * n];
        for (ri, &r) in self.rows.iter().enumerate() {
            for c in 0..self.size.k {
                let wv = f64::from(self.w.get(r, c).to_f32()).abs();
                if wv == 0.0 {
                    continue;
                }
                let gt = (r / cfg.gt_rows) * gtiles_x + c / cfg.gt_cols;
                let half_sw = f64::from(q.error_bound(gt));
                for j in 0..n {
                    let xv = f64::from(self.x.get(c, j).to_f32()).abs();
                    quant[ri * n + j] += half_sw * (xv + half_sx) + wv * half_sx;
                }
            }
        }
        let worst = self.worst_excess(out, |i| {
            quant[i] + 2.0 * gamma * (self.abs_sum[i] + quant[i]) + 1e-6
        });
        checks.check(worst <= 0.0, || {
            format!("INT8 output exceeds its quantisation bound by {worst:e}")
        });
    }

    /// Largest `|out − reference| − bound` over the checked rows.
    fn worst_excess(&self, out: &[f32], bound: impl Fn(usize) -> f64) -> f64 {
        let n = self.size.n;
        let mut worst = f64::NEG_INFINITY;
        for (ri, &r) in self.rows.iter().enumerate() {
            for j in 0..n {
                let i = ri * n + j;
                let err = (f64::from(out[r * n + j]) - self.reference[i]).abs();
                worst = worst.max(err - bound(i));
            }
        }
        worst
    }
}

/// Counters and timing the launch returned, recorded on its span.
fn launch_attrs(chain: &LaunchChain, nnz: f64) -> Vec<(&'static str, f64)> {
    let c = chain.merged_counters();
    let main = &chain.launches[0].timing;
    vec![
        ("nnz", nnz),
        ("sim_us", chain.time_us()),
        ("dram_read_bytes", c.dram_read_bytes as f64),
        ("smem_bank_conflicts", c.smem_bank_conflicts as f64),
        ("insts_issued", c.insts_issued as f64),
        ("mma_insts", c.mma_insts as f64),
        ("mma_s8_insts", c.mma_s8_insts as f64),
        ("bw_util", main.bw_util),
        ("tc_util", main.tc_util),
    ]
}

pub fn end_to_end(samples: &[SpmmSample]) -> Vec<Metric> {
    let med = |f: fn(&SpmmSample) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
    vec![
        Metric::new("spmm_fp16_s", med(|s| s.fp16_s), "s", Clock::Host),
        Metric::new("spmm_int8_s", med(|s| s.int8_s), "s", Clock::Host),
        Metric::new("sim_spmm_fp16_us", samples[0].sim_fp16_us, "us", Clock::Sim),
        Metric::new("sim_spmm_int8_us", samples[0].sim_int8_us, "us", Clock::Sim),
    ]
}

pub fn per_layer(spans: &[Span]) -> Vec<Metric> {
    let med_secs = |name: &str| median(&named(spans, name).map(Span::secs).collect::<Vec<_>>());
    let mut out = Vec::new();
    for (prec, mma) in [("fp16", "mma_insts"), ("int8", "mma_s8_insts")] {
        let launch = if prec == "fp16" {
            "core.spmm.launch_fp16"
        } else {
            "core.spmm.launch_int8"
        };
        let l = last(spans, launch);
        for (key, unit) in [
            ("dram_read_bytes", "bytes"),
            ("smem_bank_conflicts", "count"),
            ("insts_issued", "count"),
            ("bw_util", "ratio"),
            ("tc_util", "ratio"),
            (mma, "count"),
        ] {
            out.push(Metric::new(
                &format!("gpu_sim.{prec}.{key}"),
                l.attr(key),
                unit,
                Clock::Sim,
            ));
        }
        out.push(Metric::new(
            &format!("core.spmm.{prec}_host_ns_per_nnz"),
            med_secs(launch) * 1e9 / l.attr("nnz"),
            "ns",
            Clock::Host,
        ));
    }
    for stage in [
        "core.tca_bme.encode",
        "core.serialize.to_bytes",
        "core.serialize.from_bytes",
    ] {
        for prec in ["fp16", "int8"] {
            let name = format!("{stage}_{prec}");
            out.push(Metric::new(
                &format!("{name}_s"),
                med_secs(&name),
                "s",
                Clock::Host,
            ));
        }
    }
    out.push(Metric::new(
        "core.serialize.container_bytes",
        last(spans, "core.serialize.to_bytes_fp16").attr("bytes")
            + last(spans, "core.serialize.to_bytes_int8").attr("bytes"),
        "bytes",
        Clock::Count,
    ));
    out.push(Metric::new(
        "core.tca_bme.compression_ratio",
        last(spans, "core.tca_bme.encode_fp16").attr("compression_ratio"),
        "ratio",
        Clock::Count,
    ));
    out
}
