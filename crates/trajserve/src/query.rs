//! The versioned `/v1` query schema: one request shape and one response
//! envelope shared by `/v1/score`, `/v1/match`, and `/v1/predict`.
//!
//! A [`QueryRequest`] is a dataset plus optional [`QueryOptions`]:
//!
//! ```json
//! {
//!   "trajectories": [ ... ],
//!   "options": { "measure": "nm", "patterns": [0, 2] }
//! }
//! ```
//!
//! Because `options` is optional, every plain dataset JSON is also a
//! valid `/v1` body. Unknown option names are ignored, so bodies written
//! for an older schema keep parsing.
//!
//! Responses share the `trajserve-query/v1` envelope: a `schema` tag, the
//! `query` kind, and route-specific fields appended in a fixed order by
//! [`QueryResponse`]. Errors share the structured envelope rendered by
//! [`Response::error`](crate::http::Response::error).

use trajdata::{Dataset, Trajectory};
use trajpattern::Measure;

use crate::http::Response;

/// Schema tag of every `/v1` query response.
pub const QUERY_SCHEMA: &str = "trajserve-query/v1";

/// Options accepted by every `/v1` POST route.
#[derive(Debug, Default, serde::Deserialize)]
pub struct QueryOptions {
    /// Scoring measure: `"nm"` (default, the paper's normalized match)
    /// or `"match"` (raw window match probability).
    pub measure: Option<String>,
    /// Restrict scoring to these snapshot pattern indices (default: all).
    pub patterns: Option<Vec<usize>>,
}

impl QueryOptions {
    /// The requested measure, or a client-facing error message.
    pub fn measure(&self) -> Result<Measure, String> {
        match self.measure.as_deref() {
            None | Some("nm") => Ok(Measure::Nm),
            Some("match") => Ok(Measure::Match),
            Some(other) => Err(format!(
                "unknown measure '{other}' (expected 'nm' or 'match')"
            )),
        }
    }
}

/// A parsed `/v1` request body: the trajectories to query plus options.
#[derive(Debug, serde::Deserialize)]
pub struct QueryRequest {
    /// Trajectories the query runs over.
    pub trajectories: Vec<Trajectory>,
    /// Optional knobs; a plain dataset JSON leaves this `None`.
    pub options: Option<QueryOptions>,
}

impl QueryRequest {
    /// Parses a request body, mapping failures to structured 400s.
    pub fn parse(body: &[u8]) -> Result<QueryRequest, Response> {
        let text = std::str::from_utf8(body)
            .map_err(|_| Response::error(400, "request body is not UTF-8"))?;
        serde_json::from_str(text).map_err(|e| Response::error(400, &format!("bad query: {e}")))
    }

    /// The posted trajectories as a [`Dataset`].
    pub fn dataset(&self) -> Dataset {
        self.trajectories.iter().cloned().collect()
    }

    /// The options block, defaulted when absent.
    pub fn options(&self) -> QueryOptions {
        QueryOptions {
            measure: self.options.as_ref().and_then(|o| o.measure.clone()),
            patterns: self.options.as_ref().and_then(|o| o.patterns.clone()),
        }
    }
}

/// Options accepted by the object-query routes (`/v1/prange`,
/// `/v1/pnn`, `/v1/matchlive`).
#[derive(Debug, Default, serde::Deserialize)]
pub struct ObjectQueryOptions {
    /// §3.1 uncertainty growth per unit of elapsed time since the last
    /// snapshot (default 0). Only honored when the request posts its own
    /// trajectories — a live window's query set is built (and indexed)
    /// with the fleet's growth rate, so per-request overrides are a 400.
    pub growth_rate: Option<f64>,
}

/// A parsed object-query body: the probabilistic query parameters, plus
/// — in static mode — the trajectories to query over.
///
/// ```json
/// {
///   "p": [0.5, 0.5], "delta": 0.1, "t": 1.5, "tau": 0.5, "k": 4,
///   "trajectories": [ ... ],
///   "options": { "growth_rate": 0.0 }
/// }
/// ```
///
/// `/v1/matchlive` uses `pattern` (grid cell ids) and `threshold`
/// instead of `p`/`delta`/`t`/`tau`/`k`.
#[derive(Debug, Default, serde::Deserialize)]
pub struct ObjectQueryRequest {
    /// Query point `[x, y]` (`prange` / `pnn`).
    pub p: Option<Vec<f64>>,
    /// Range radius δ (`prange`: required; `pnn`: defaults to the
    /// snapshot's mining δ).
    pub delta: Option<f64>,
    /// Query time (snapshot index; fractional values interpolate).
    pub t: Option<f64>,
    /// Probability threshold τ (default 0).
    pub tau: Option<f64>,
    /// Result count for `pnn`.
    pub k: Option<usize>,
    /// Pattern cell ids for `matchlive`.
    pub pattern: Option<Vec<u32>>,
    /// NM threshold for `matchlive` (default: no threshold).
    pub threshold: Option<f64>,
    /// Objects to query (static mode only; live mode queries the shard
    /// windows and rejects posted trajectories).
    pub trajectories: Option<Vec<Trajectory>>,
    /// Optional knobs.
    pub options: Option<ObjectQueryOptions>,
}

impl ObjectQueryRequest {
    /// Parses a request body, mapping failures to structured 400s.
    pub fn parse(body: &[u8]) -> Result<ObjectQueryRequest, Response> {
        let text = std::str::from_utf8(body)
            .map_err(|_| Response::error(400, "request body is not UTF-8"))?;
        serde_json::from_str(text).map_err(|e| Response::error(400, &format!("bad query: {e}")))
    }

    /// The query point, validated to be a finite `[x, y]` pair.
    pub fn point(&self) -> Result<trajgeo::Point2, Response> {
        let Some(p) = self.p.as_deref() else {
            return Err(Response::error(400, "query needs \"p\": [x, y]"));
        };
        let [x, y] = p else {
            return Err(Response::error(
                400,
                &format!("\"p\" must be [x, y] (got {} coordinates)", p.len()),
            ));
        };
        Ok(trajgeo::Point2::new(*x, *y))
    }

    /// The options block, defaulted when absent.
    pub fn options(&self) -> ObjectQueryOptions {
        ObjectQueryOptions {
            growth_rate: self.options.as_ref().and_then(|o| o.growth_rate),
        }
    }
}

/// Builder for the shared `trajserve-query/v1` response envelope. Fields
/// render in insertion order after the fixed `schema` and `query` tags,
/// so response bodies are deterministic.
#[derive(Debug)]
pub struct QueryResponse {
    fields: Vec<(String, serde_json::Value)>,
}

impl QueryResponse {
    /// Starts an envelope for the given query kind
    /// (`"score"` / `"match"` / `"predict"`).
    pub fn new(query: &str) -> QueryResponse {
        QueryResponse {
            fields: vec![
                (
                    "schema".to_string(),
                    serde_json::Value::String(QUERY_SCHEMA.to_string()),
                ),
                (
                    "query".to_string(),
                    serde_json::Value::String(query.to_string()),
                ),
            ],
        }
    }

    /// Appends one response field.
    pub fn field(mut self, name: &str, value: serde_json::Value) -> QueryResponse {
        self.fields.push((name.to_string(), value));
        self
    }

    /// Renders the envelope as a pretty-printed 200 response.
    pub fn into_response(self) -> Response {
        let value = serde_json::Value::Object(self.fields);
        Response::json(
            200,
            serde_json::to_string_pretty(&value).expect("query response serializes"),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_dataset_json_is_a_valid_query() {
        let body = br#"{"trajectories": []}"#;
        let q = QueryRequest::parse(body).expect("parses");
        assert!(q.options.is_none());
        let opts = q.options();
        assert!(matches!(opts.measure().unwrap(), Measure::Nm));
        assert!(opts.patterns.is_none());
    }

    #[test]
    fn options_round_trip() {
        // An option this schema no longer has must not break parsing.
        let body = br#"{
            "trajectories": [],
            "options": {"measure": "match", "use_index": false, "patterns": [1, 3]}
        }"#;
        let q = QueryRequest::parse(body).expect("parses");
        let opts = q.options();
        assert!(matches!(opts.measure().unwrap(), Measure::Match));
        assert_eq!(opts.patterns.as_deref(), Some(&[1usize, 3][..]));
    }

    #[test]
    fn unknown_measure_is_a_client_error() {
        let body = br#"{"trajectories": [], "options": {"measure": "bogus"}}"#;
        let q = QueryRequest::parse(body).expect("parses");
        let err = q.options().measure().unwrap_err();
        assert!(err.contains("bogus"), "{err}");
    }

    #[test]
    fn bad_body_maps_to_structured_400() {
        let resp = QueryRequest::parse(b"not json").unwrap_err();
        assert_eq!(resp.status, 400);
        let body = String::from_utf8(resp.body).unwrap();
        let v: serde_json::Value = serde_json::from_str(&body).unwrap();
        assert_eq!(v["error"]["code"].as_str().unwrap(), "bad_request");
    }

    #[test]
    fn envelope_renders_schema_then_query_then_fields() {
        let resp = QueryResponse::new("score")
            .field("trajectories", serde_json::json!(2))
            .into_response();
        let body = String::from_utf8(resp.body).unwrap();
        let v: serde_json::Value = serde_json::from_str(&body).unwrap();
        assert_eq!(v["schema"].as_str().unwrap(), QUERY_SCHEMA);
        assert_eq!(v["query"].as_str().unwrap(), "score");
        assert_eq!(v["trajectories"].as_u64().unwrap(), 2);
        // The tags render before the payload fields.
        let schema_at = body.find("\"schema\"").unwrap();
        let traj_at = body.find("\"trajectories\"").unwrap();
        assert!(schema_at < traj_at);
    }
}
