//! The frozen `mi-serve/1` wire protocol.
//!
//! Newline-delimited JSON over a Unix domain socket: each request and each
//! response is exactly one line (payloads that are themselves multi-line
//! documents — profiles, metrics — travel string-escaped or
//! newline-stripped). The schema is documented in `DESIGN.md` and pinned
//! byte-for-byte by the golden-file test `tests/golden.rs`.
//!
//! Byte-identity note: a response's `result` is always the envelope's
//! *last* field, so [`Response::decode`] can hand callers the raw payload
//! bytes unreparsed — which is how `mi run --connect` and the identity
//! tests compare served results against in-process sweeps without a lossy
//! JSON round-trip. A `trap` error's `report` is always a report cell, which
//! [`JobError::from_json`] renders back to the same bytes.

use bench::job::{JobError, JobSpec};
use telemetry::json::{self, json_str, obj, Json};

/// The protocol identifier every line carries.
pub const SCHEMA: &str = "mi-serve/1";

/// Per-job case cap for [`Op::Fuzz`].
pub const MAX_FUZZ_CASES: u64 = 64;

/// A client request's operation.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    /// Enqueue a job; the response arrives when it completes (responses to
    /// pipelined jobs may arrive out of submission order — match by `id`).
    Job {
        /// What to run.
        spec: JobSpec,
        /// Per-job deadline in milliseconds, measured from arrival (so it
        /// covers queue wait). Omitted = the server's default.
        deadline_ms: Option<u64>,
    },
    /// Enqueue a bounded differential-fuzz job: run oracle cases
    /// `start..start + cases` of `seed`'s deterministic case stream
    /// (`cases` is capped at [`MAX_FUZZ_CASES`] per job so one request
    /// cannot monopolize a worker — sweep a large range by pipelining
    /// several jobs).
    Fuzz {
        /// Root seed of the case stream.
        seed: u64,
        /// First case index.
        start: u64,
        /// Number of cases (1..=[`MAX_FUZZ_CASES`]).
        cases: u64,
    },
    /// Cancel a queued or running job submitted on this connection.
    Cancel {
        /// The request id of the job to cancel.
        target: u64,
    },
    /// Fetch the daemon's merged `mi-metrics/1` registry (artifact-store
    /// hit/miss/eviction counters, job outcome tallies, live gauges).
    Metrics,
    /// Liveness probe.
    Ping,
    /// Drain: reject new jobs, finish queued and running ones, reply, stop.
    Shutdown,
}

impl Op {
    /// The operation's wire name.
    pub fn name(&self) -> &'static str {
        match self {
            Op::Job { .. } => "job",
            Op::Fuzz { .. } => "fuzz",
            Op::Cancel { .. } => "cancel",
            Op::Metrics => "metrics",
            Op::Ping => "ping",
            Op::Shutdown => "shutdown",
        }
    }
}

/// One request line.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// Client-chosen id, echoed in the response. Must be unique among the
    /// connection's outstanding requests.
    pub id: u64,
    /// The operation.
    pub op: Op,
}

impl Request {
    /// Encodes the request as its wire line (no trailing newline).
    pub fn encode(&self) -> String {
        let mut m =
            vec![("schema", SCHEMA.into()), ("id", self.id.into()), ("op", self.op.name().into())];
        match &self.op {
            Op::Job { spec, deadline_ms } => {
                m.push(("job", spec.to_json()));
                if let Some(d) = deadline_ms {
                    m.push(("deadline_ms", (*d).into()));
                }
            }
            Op::Fuzz { seed, start, cases } => {
                m.extend([
                    ("seed", (*seed).into()),
                    ("start", (*start).into()),
                    ("cases", (*cases).into()),
                ]);
            }
            Op::Cancel { target } => m.push(("target", (*target).into())),
            Op::Metrics | Op::Ping | Op::Shutdown => {}
        }
        obj(m).render(json::MI_SERVE)
    }

    /// Decodes one wire line.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first structural problem (bad JSON,
    /// wrong schema, missing id, unknown op, malformed job).
    pub fn decode(line: &str) -> Result<Request, String> {
        let v = Json::parse(line.trim()).map_err(|e| e.to_string())?;
        match v.get("schema").and_then(Json::as_str) {
            Some(SCHEMA) => {}
            other => return Err(format!("expected schema {SCHEMA:?}, got {other:?}")),
        }
        let id = v.get("id").and_then(Json::as_u64).ok_or("request missing numeric \"id\"")?;
        let op = match v.get("op").and_then(Json::as_str) {
            Some("job") => Op::Job {
                spec: JobSpec::from_json(v.get("job").ok_or("job op missing \"job\"")?)?,
                deadline_ms: v.get("deadline_ms").and_then(Json::as_u64),
            },
            Some("fuzz") => {
                let cases = v
                    .get("cases")
                    .and_then(Json::as_u64)
                    .ok_or("fuzz op missing numeric \"cases\"")?;
                if cases == 0 || cases > MAX_FUZZ_CASES {
                    return Err(format!(
                        "fuzz \"cases\" must be 1..={MAX_FUZZ_CASES}, got {cases}"
                    ));
                }
                Op::Fuzz {
                    seed: v
                        .get("seed")
                        .and_then(Json::as_u64)
                        .ok_or("fuzz op missing numeric \"seed\"")?,
                    start: v.get("start").and_then(Json::as_u64).unwrap_or(0),
                    cases,
                }
            }
            Some("cancel") => Op::Cancel {
                target: v
                    .get("target")
                    .and_then(Json::as_u64)
                    .ok_or("cancel op missing numeric \"target\"")?,
            },
            Some("metrics") => Op::Metrics,
            Some("ping") => Op::Ping,
            Some("shutdown") => Op::Shutdown,
            other => return Err(format!("unknown op {other:?}")),
        };
        Ok(Request { id, op })
    }
}

/// A response's payload.
#[derive(Clone, Debug, PartialEq)]
pub enum ResponseBody {
    /// Success; `result` holds the raw JSON payload bytes (for run jobs:
    /// exactly the driver's cell rendering).
    Ok {
        /// Raw single-line JSON.
        result: String,
    },
    /// Failure, as a typed [`JobError`].
    Err(JobError),
}

/// One response line.
#[derive(Clone, Debug, PartialEq)]
pub struct Response {
    /// The request id this responds to.
    pub id: u64,
    /// Payload.
    pub body: ResponseBody,
}

impl Response {
    /// Encodes the response as its wire line (no trailing newline). The
    /// payload is always the last envelope field — see the module docs.
    pub fn encode(&self) -> String {
        let (ok, payload) = match &self.body {
            ResponseBody::Ok { result } => (true, ("result", Json::Raw(result.clone()))),
            ResponseBody::Err(e) => (false, ("error", e.to_json())),
        };
        obj([("schema", SCHEMA.into()), ("id", self.id.into()), ("ok", ok.into()), payload])
            .render(json::MI_SERVE)
    }

    /// Decodes one wire line, preserving the payload's raw bytes.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first structural problem.
    pub fn decode(line: &str) -> Result<Response, String> {
        let line = line.trim();
        let v = Json::parse(line).map_err(|e| e.to_string())?;
        match v.get("schema").and_then(Json::as_str) {
            Some(SCHEMA) => {}
            other => return Err(format!("expected schema {SCHEMA:?}, got {other:?}")),
        }
        let id = v.get("id").and_then(Json::as_u64).ok_or("response missing numeric \"id\"")?;
        let body = match v.get("ok").and_then(Json::as_bool) {
            Some(true) => ResponseBody::Ok {
                result: raw_last_field(line, "result")
                    .ok_or("ok response missing \"result\"")?
                    .to_string(),
            },
            Some(false) => ResponseBody::Err(JobError::from_json(
                v.get("error").ok_or("err response missing \"error\"")?,
            )?),
            None => return Err("response missing boolean \"ok\"".to_string()),
        };
        Ok(Response { id, body })
    }
}

/// Convenience: the wire line rejecting request `id` with `reason` (used
/// by the server for lines it cannot decode far enough to dispatch).
pub fn reject_line(id: u64, reason: &str) -> String {
    Response { id, body: ResponseBody::Err(JobError::Rejected { reason: reason.to_string() }) }
        .encode()
}

/// Slices the raw bytes of envelope field `key`, relying on the encoder's
/// guarantee that `key` is the last field (everything from after the colon
/// to the closing `}` of the envelope). Only envelope-controlled text
/// precedes the payload, so the first occurrence of `"key":` is the field.
fn raw_last_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("{}:", json_str(key));
    let start = line.find(&pat)? + pat.len();
    let end = line.rfind('}')?;
    (start < end).then(|| &line[start..end])
}

#[cfg(test)]
mod tests {
    use super::*;
    use bench::job::{JobAction, SourceRef};

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request {
                id: 1,
                op: Op::Job {
                    spec: JobSpec {
                        source: SourceRef::Benchmark { name: "183equake".into() },
                        config: "softbound@O3@VectorizerStart".parse().unwrap(),
                        action: JobAction::Run,
                    },
                    deadline_ms: Some(5000),
                },
            },
            Request { id: 2, op: Op::Cancel { target: 1 } },
            Request { id: 6, op: Op::Fuzz { seed: 42, start: 128, cases: 16 } },
            Request { id: 3, op: Op::Metrics },
            Request { id: 4, op: Op::Ping },
            Request { id: 5, op: Op::Shutdown },
        ];
        for r in reqs {
            let line = r.encode();
            assert_eq!(Request::decode(&line).unwrap(), r, "{line}");
        }
    }

    #[test]
    fn responses_preserve_raw_payload_bytes() {
        // Spacing inside the payload (driver cell style) must survive.
        let payload = r#"{"program": "x", "config": "baseline@O3@VectorizerStart", "ok": true}"#;
        let line = Response { id: 7, body: ResponseBody::Ok { result: payload.into() } }.encode();
        let back = Response::decode(&line).unwrap();
        assert_eq!(back.id, 7);
        assert_eq!(back.body, ResponseBody::Ok { result: payload.to_string() });

        let trap = JobError::Trap { report: r#"{"ok": false, "trap": "boom"}"#.to_string() };
        let line = Response { id: 8, body: ResponseBody::Err(trap.clone()) }.encode();
        assert_eq!(Response::decode(&line).unwrap().body, ResponseBody::Err(trap));
    }

    #[test]
    fn fuzz_case_range_is_bounded() {
        // An omitted start defaults to 0; the case count is mandatory and
        // capped so one request cannot monopolize a worker.
        let r = Request::decode(
            "{\"schema\":\"mi-serve/1\",\"id\":1,\"op\":\"fuzz\",\"seed\":7,\"cases\":64}",
        )
        .unwrap();
        assert_eq!(r.op, Op::Fuzz { seed: 7, start: 0, cases: 64 });
        for bad in [
            "{\"schema\":\"mi-serve/1\",\"id\":1,\"op\":\"fuzz\",\"seed\":7,\"cases\":0}",
            "{\"schema\":\"mi-serve/1\",\"id\":1,\"op\":\"fuzz\",\"seed\":7,\"cases\":65}",
            "{\"schema\":\"mi-serve/1\",\"id\":1,\"op\":\"fuzz\",\"cases\":8}",
            "{\"schema\":\"mi-serve/1\",\"id\":1,\"op\":\"fuzz\",\"seed\":7}",
        ] {
            assert!(Request::decode(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(Request::decode("not json").is_err());
        assert!(Request::decode("{\"schema\":\"mi-serve/0\",\"id\":1,\"op\":\"ping\"}").is_err());
        assert!(Request::decode("{\"schema\":\"mi-serve/1\",\"op\":\"ping\"}").is_err());
        assert!(Request::decode("{\"schema\":\"mi-serve/1\",\"id\":1,\"op\":\"nope\"}").is_err());
        assert!(Response::decode("{\"schema\":\"mi-serve/1\",\"id\":1}").is_err());
    }
}
