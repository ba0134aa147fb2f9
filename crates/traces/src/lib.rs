//! # paldia-traces
//!
//! Request-arrival traces and the request-rate predictor.
//!
//! The paper drives its evaluation with four arrival patterns:
//!
//! * a sample of the **Azure Functions** traces (bursty, peak-to-mean
//!   ~673:55, ~25 min) — the primary experiments;
//! * a 5-day **Wikipedia** trace (diurnal, ~16 h/day of sustained high
//!   traffic, peak scaled to ~170 rps) — Fig. 12a;
//! * a 90-minute **Twitter** sample (erratic, mean 5× the Azure trace) —
//!   Fig. 12b;
//! * a synthetic **Poisson** trace (mean ~700 rps) for the
//!   resource-exhaustion study — Fig. 13a.
//!
//! The original trace files are not redistributable, so each is replaced by
//! a synthetic generator that reproduces the statistics the paper quotes
//! (peak rate, peak-to-mean ratio, duration, burst structure). Schedulers
//! only observe arrival timestamps, so matching those statistics preserves
//! the scheduling problem. The Wikipedia trace is additionally
//! time-compressed (rates preserved, duration shortened) to keep simulated
//! event counts tractable — see `wiki` module docs.

pub mod analytics;
pub mod arrivals;
pub mod azure;
pub mod ewma;
pub mod io;
pub mod poisson;
pub mod predictor;
pub mod trace;
pub mod twitter;
pub mod wiki;

pub use arrivals::{count_arrivals, generate_arrivals, ArrivalStream};
pub use ewma::{EwmaPredictor, RateWindow};
pub use io::{read_trace, write_trace, TraceIoError};
pub use predictor::{Predictor, PredictorKind};
pub use trace::RateTrace;
