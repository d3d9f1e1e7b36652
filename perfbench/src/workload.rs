//! The three workloads: how each trace is generated, what set-up builds
//! before the first frame, and the run call itself.

use o2o_core::{NonSharingDispatcher, PreferenceParams, SharingDispatcher};
use o2o_geo::{BBox, Euclidean};
use o2o_obs::{FleetMeta, JsonlSink, Recorder, SloMetric, SloSpec};
use o2o_par::Parallelism;
use o2o_sim::policy::{self, NstdPPolicy, NstdTPolicy, StdPPolicy};
use o2o_sim::{CheckpointSpec, DispatchPolicy, FaultPlan, SimConfig, SimReport, Simulator};
use o2o_trace::{boston_september_2012, csv_io, nyc_january_2016, Taxi, Trace, TraceConfig};
use std::fs;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 4 set-up: NYC day, 700 taxis, NSTD-T, taxi threshold 4 km.
    NycNstdTDay,
    /// Fig. 9 set-up (Boston day, STD-P with its per-frame distance
    /// cache, θ = 5, taxi threshold 1 km) with 400 taxis instead of 200:
    /// with 200 the day sits at the congestion knee, and its cost and mean
    /// delay moved by a third between seeds.
    BostonStdPDay,
    /// Seven Boston days under NSTD-P with a 1% fault plan, checkpoints
    /// and a JSONL event stream with SLO monitoring.
    BostonOpsWeek,
}

impl Workload {
    /// Every workload, in the order the notes describe them.
    pub const ALL: [Workload; 3] = [
        Workload::NycNstdTDay,
        Workload::BostonStdPDay,
        Workload::BostonOpsWeek,
    ];

    /// The name the command line uses.
    pub fn name(self) -> &'static str {
        match self {
            Workload::NycNstdTDay => "nyc_nstd_t_day",
            Workload::BostonStdPDay => "boston_std_p_day",
            Workload::BostonOpsWeek => "boston_ops_week",
        }
    }

    /// The workload called `name`, if any.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn trace_config(self) -> TraceConfig {
        match self {
            Workload::NycNstdTDay => nyc_january_2016(1.0).taxis(700),
            Workload::BostonStdPDay => boston_september_2012(1.0).taxis(400),
            Workload::BostonOpsWeek => boston_september_2012(1.0).taxis(200).days(self.days()),
        }
    }

    fn days(self) -> u32 {
        if self == Workload::BostonOpsWeek {
            7
        } else {
            1
        }
    }

    /// Traces an invocation generates and runs; the outcome metrics are
    /// their means. As many as one pass over them fits in a 38-second
    /// invocation: single days differ from seed to seed, most of all in
    /// their busiest frames.
    pub fn traces(self) -> usize {
        match self {
            Workload::NycNstdTDay => 4,
            Workload::BostonStdPDay => 6,
            Workload::BostonOpsWeek => 6,
        }
    }

    /// Set-ups timed before the first run of each trace, the run's own
    /// included: half a second to two seconds of set-up per trace.
    pub fn setups_per_trace(self) -> usize {
        match self {
            Workload::NycNstdTDay => 50,
            Workload::BostonStdPDay => 30,
            Workload::BostonOpsWeek => 12,
        }
    }

    /// The interest-model parameters the workload dispatches with.
    pub fn params(self) -> PreferenceParams {
        match self {
            Workload::NycNstdTDay => PreferenceParams::paper().with_taxi_threshold(4.0),
            Workload::BostonStdPDay => PreferenceParams::paper().with_taxi_threshold(1.0),
            Workload::BostonOpsWeek => PreferenceParams::paper(),
        }
    }

    /// Whether the workload's policy promises a stable matching per frame.
    pub fn is_non_sharing(self) -> bool {
        self != Workload::BostonStdPDay
    }

    fn policy(self) -> Policy {
        let params = self.params();
        let nstd = || NonSharingDispatcher::new(Euclidean, params);
        match self {
            Workload::NycNstdTDay => Box::new(NstdTPolicy::from_dispatcher(nstd())),
            Workload::BostonStdPDay => Box::new(policy::cached(Euclidean, |metric| {
                StdPPolicy::from_dispatcher(
                    SharingDispatcher::new(metric, params)
                        .with_parallelism(Parallelism::sequential()),
                )
            })),
            Workload::BostonOpsWeek => Box::new(NstdPPolicy::from_dispatcher(nstd())),
        }
    }
}

/// A generated trace as the program receives it: request CSV bytes plus
/// the initial fleet.
pub struct Input {
    name: String,
    bbox: BBox,
    /// The requests in the trace CSV format.
    csv: Vec<u8>,
    /// Initial taxi positions.
    fleet: Vec<Taxi>,
    /// Data rows in `csv`.
    pub rows: usize,
}

impl Input {
    /// Generates the workload's trace from `seed` with the library
    /// generator, writes its requests as trace CSV to `dir` and reads the
    /// bytes back. The generator's own buffers are dropped before this
    /// returns.
    pub fn generate(workload: Workload, seed: u64, dir: &Path) -> std::io::Result<Input> {
        let Trace {
            name,
            bbox,
            requests,
            taxis,
        } = workload.trace_config().generate(seed);
        let path = dir.join("requests.csv");
        let mut out = BufWriter::new(fs::File::create(&path)?);
        csv_io::write_requests(&mut out, &requests)?;
        out.flush()?;
        drop(out);
        Ok(Input {
            name,
            bbox,
            csv: fs::read(&path)?,
            fleet: taxis,
            rows: requests.len(),
        })
    }
}

/// Where one workload run keeps its files.
pub struct RunFiles {
    /// Checkpoint directory (`boston_ops_week`).
    ckpt_dir: PathBuf,
    /// JSONL event stream (`boston_ops_week`).
    pub events: PathBuf,
}

impl RunFiles {
    /// Paths under `dir`.
    pub fn in_dir(dir: &Path) -> RunFiles {
        RunFiles {
            ckpt_dir: dir.join("ckpt"),
            events: dir.join("events.jsonl"),
        }
    }

    /// Removes what a previous run left, so a checkpointed run starts
    /// fresh instead of resuming.
    pub fn clear(&self) -> std::io::Result<()> {
        match fs::remove_dir_all(&self.ckpt_dir) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(e),
            _ => Ok(()),
        }
    }
}

/// Everything set-up builds before the first frame.
pub struct Setup {
    /// The trace parsed from the CSV bytes.
    pub trace: Trace,
    /// CSV rows the reader quarantined.
    pub quarantined: usize,
    /// Seconds spent parsing and validating the trace.
    pub ingest_s: f64,
    /// The configured simulator.
    pub sim: Simulator,
    ckpt: Option<CheckpointSpec>,
}

/// A workload's policy, boxed.
pub type Policy = Box<dyn DispatchPolicy + Send>;

/// SLO specs of the operations workload's live monitor.
fn slo_specs() -> Vec<SloSpec> {
    vec![
        SloSpec::max("frame-p99", SloMetric::FrameP99Ms, 5.0, 60),
        SloSpec::min("served", SloMetric::ServedRatio, 0.5, 60),
        SloSpec::max("ckpt-overhead", SloMetric::CheckpointOverheadPct, 3.0, 60),
    ]
}

impl Setup {
    /// Parses `input`, validates the trace and builds the simulator and
    /// policy: the work before the first frame. `traced` turns the
    /// in-memory recorder on; the operations workload always records to
    /// its event stream.
    pub fn build(
        workload: Workload,
        input: &Input,
        seed: u64,
        files: &RunFiles,
        traced: bool,
    ) -> Result<(Setup, Policy), String> {
        let started = Instant::now();
        let (requests, quarantine) = csv_io::read_requests_quarantined(input.csv.as_slice())
            .map_err(|e| format!("reading the trace CSV: {e}"))?;
        let trace = Trace {
            name: input.name.clone(),
            bbox: input.bbox,
            requests,
            taxis: input.fleet.clone(),
        };
        trace.validate()?;
        let ingest_s = started.elapsed().as_secs_f64();

        let sim = Simulator::new(SimConfig::default()).with_parallelism(Parallelism::sequential());
        let (sim, ckpt) = if workload == Workload::BostonOpsWeek {
            fs::create_dir_all(&files.ckpt_dir).map_err(|e| format!("checkpoint dir: {e}"))?;
            let sink = JsonlSink::create(&files.events)
                .map_err(|e| format!("event stream: {e}"))?
                .with_meta(FleetMeta::new("perfbench", 0, seed));
            let sim = sim
                .with_fault_plan(FaultPlan::uniform(seed, 0.01))
                .with_recorder(Recorder::with_sink(Box::new(sink)))
                .with_slo(slo_specs());
            (sim, Some(CheckpointSpec::new(&files.ckpt_dir)))
        } else if traced {
            (sim.with_recorder(Recorder::new()), None)
        } else {
            (sim.with_recorder(Recorder::disabled()), None)
        };
        let setup = Setup {
            trace,
            quarantined: quarantine.len(),
            ingest_s,
            sim,
            ckpt,
        };
        Ok((setup, workload.policy()))
    }

    /// Runs `policy` (the one built with the set-up, or a wrapper around
    /// it) over the trace; returns the report and the run call's wall
    /// seconds.
    pub fn run<P: DispatchPolicy>(&self, policy: &mut P) -> Result<(SimReport, f64), String> {
        let started = Instant::now();
        let report = match &self.ckpt {
            None => self.sim.run(&self.trace, policy),
            Some(spec) => self
                .sim
                .run_checkpointed(&self.trace, policy, spec)
                .map_err(|e| format!("checkpointed run: {e}"))?
                .report()
                .ok_or("checkpointed run stopped before the end")?,
        };
        Ok((report, started.elapsed().as_secs_f64()))
    }

    /// Size of the newest checkpoint file, in bytes (0 without
    /// checkpoints).
    pub fn last_checkpoint_bytes(&self) -> Result<u64, String> {
        let Some(spec) = &self.ckpt else {
            return Ok(0);
        };
        let files = o2o_sim::checkpoint_files(&spec.dir).map_err(|e| e.to_string())?;
        match files.first() {
            Some(newest) => fs::metadata(newest)
                .map(|m| m.len())
                .map_err(|e| e.to_string()),
            None => Ok(0),
        }
    }
}
