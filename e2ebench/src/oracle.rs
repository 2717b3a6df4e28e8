//! Correctness checks of the server's replies. Every expectation is built
//! here, apart from the serving path: the match result comes from a cold
//! one-shot `ContextualMatcher::run` in this process, and versions and pair
//! counts follow from the inputs.

use cxm_core::{ContextMatchConfig, ContextMatchResult, ContextualMatcher};
use cxm_relational::Database;
use cxm_server::client::{error_code, is_ok};
use cxm_server::{encode_result, Json, TenantPolicy};
use cxm_stats::MatchSetQuality;

/// The cold reference result: a fresh matcher with the server's default
/// configuration, run once on the plain inputs.
pub fn cold_result(source: &Database, catalog: &Database) -> ContextMatchResult {
    ContextualMatcher::new(ContextMatchConfig::default())
        .run(source, catalog)
        .expect("the cold reference run succeeds on generated inputs")
}

/// What a correct `submit` reply holds: its flags, and the exact bytes of
/// its `result` member.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected {
    pub cache_hit: bool,
    pub catalog_version: u64,
    pub result: Vec<u8>,
}

pub fn expected_reply(
    catalog_version: u64,
    cache_hit: bool,
    result: &ContextMatchResult,
) -> Expected {
    Expected {
        cache_hit,
        catalog_version,
        result: encode_result(result, &TenantPolicy::default()).to_bytes(),
    }
}

/// The reply is `ok`, has the expected flags, and its `result` is byte for
/// byte the expected encoding.
pub fn check_reply(reply: &Json, expected: &Expected) -> Result<(), String> {
    check_submit_flags(reply, expected.cache_hit, Some(expected.catalog_version))?;
    let result = reply.get("result").ok_or("the reply has no result")?;
    if result.to_bytes() == expected.result {
        Ok(())
    } else {
        Err("result differs from the cold reference".into())
    }
}

/// The reply is `ok`, carries the expected cache flag and, when given, the
/// expected catalog version. Returns the reply's catalog version.
pub fn check_submit_flags(
    reply: &Json,
    cache_hit: bool,
    catalog_version: Option<u64>,
) -> Result<u64, String> {
    check_ok(reply)?;
    let hit = reply.get("result_cache_hit").and_then(Json::as_bool);
    if hit != Some(cache_hit) {
        return Err(format!("result_cache_hit is {hit:?}, expected {cache_hit}"));
    }
    let version = reply
        .get("catalog_version")
        .and_then(Json::as_u64)
        .ok_or("the reply has no catalog_version")?;
    match catalog_version {
        Some(expected) if expected != version => {
            Err(format!("catalog_version {version}, expected {expected}"))
        }
        _ => Ok(version),
    }
}

/// A catalog write's acknowledgement raises the version by exactly one.
pub fn check_version_step(ack: &Json, previous: u64) -> Result<u64, String> {
    check_ok(ack)?;
    let version = ack.get("version").and_then(Json::as_u64).ok_or("the ack has no version")?;
    if version == previous + 1 {
        Ok(version)
    } else {
        Err(format!("version {version} after {previous}"))
    }
}

/// The catalog version a registration acknowledged.
pub fn registered_version(ack: &Json) -> Result<u64, String> {
    check_ok(ack)?;
    ack.get("version").and_then(Json::as_u64).ok_or_else(|| "the ack has no version".into())
}

/// The index scan kept exactly the same-family pairs.
pub fn check_surviving(surviving: usize, expected: usize) -> Result<(), String> {
    if surviving == expected {
        Ok(())
    } else {
        Err(format!("{surviving} pairs survived pruning, expected {expected}"))
    }
}

fn check_ok(reply: &Json) -> Result<(), String> {
    if is_ok(reply) {
        Ok(())
    } else {
        Err(format!("error frame: {}", error_code(reply).unwrap_or("malformed reply")))
    }
}

/// F-measure (%) of selected column pairs against a `source->target` truth.
pub fn pair_f1_pct(result: &ContextMatchResult, truth: &[String]) -> f64 {
    let found: Vec<String> =
        result.selected.iter().map(|m| format!("{}->{}", m.source, m.target)).collect();
    MatchSetQuality::compare(&found, truth).f_measure_pct()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxm_datagen::{generate_retail, RetailConfig};
    use cxm_server::json::parse;

    fn small_result() -> (Database, Database, ContextMatchResult) {
        let ds = generate_retail(&RetailConfig {
            source_items: 40,
            target_rows: 40,
            ..RetailConfig::default()
        });
        let result = cold_result(&ds.source, &ds.target);
        (ds.source, ds.target, result)
    }

    fn nudge_first_score(json: &mut Json) -> bool {
        match json {
            Json::Object(members) => members.iter_mut().any(|(key, value)| match value {
                Json::Float(score) if key == "score" => {
                    *score += 1e-9;
                    true
                }
                other => nudge_first_score(other),
            }),
            Json::Array(items) => items.iter_mut().any(nudge_first_score),
            _ => false,
        }
    }

    /// A reply as the server frames it.
    fn reply(hit: bool, version: u64, result: &ContextMatchResult) -> Json {
        Json::Object(vec![
            ("ok".into(), Json::Bool(true)),
            ("op".into(), Json::str("submit")),
            ("tenant".into(), Json::str("bench")),
            ("catalog_version".into(), Json::Int(version as i64)),
            ("result_cache_hit".into(), Json::Bool(hit)),
            ("result".into(), encode_result(result, &TenantPolicy::default())),
        ])
    }

    /// The reply after a trip through the wire format.
    fn reparsed(reply: &Json) -> Json {
        parse(&reply.to_bytes()).unwrap()
    }

    #[test]
    fn an_unaltered_reply_passes_every_check() {
        let (_, _, result) = small_result();
        let reply = reparsed(&reply(true, 3, &result));
        assert_eq!(check_reply(&reply, &expected_reply(3, true, &result)), Ok(()));
        assert_eq!(check_submit_flags(&reply, true, Some(3)), Ok(3));
    }

    #[test]
    fn the_exact_check_rejects_an_altered_result() {
        let (_, _, result) = small_result();
        let expected = expected_reply(1, true, &result);
        // One score nudged.
        let mut altered = reparsed(&reply(true, 1, &result));
        assert!(nudge_first_score(&mut altered));
        assert!(check_reply(&altered, &expected).is_err());
        // One selected match dropped.
        let mut fewer = result.clone();
        fewer.selected.pop();
        assert!(check_reply(&reparsed(&reply(true, 1, &fewer)), &expected).is_err());
        // The right result under the wrong flag or version.
        assert!(check_reply(&reparsed(&reply(false, 1, &result)), &expected).is_err());
        assert!(check_reply(&reparsed(&reply(true, 2, &result)), &expected).is_err());
    }

    #[test]
    fn the_flag_check_rejects_a_wrong_flag_version_or_error_frame() {
        let (_, _, result) = small_result();
        let miss = reparsed(&reply(false, 4, &result));
        assert!(check_submit_flags(&miss, true, None).is_err());
        assert!(check_submit_flags(&miss, false, Some(5)).is_err());
        assert_eq!(check_submit_flags(&miss, false, None), Ok(4));
        let error = parse(br#"{"ok":false,"error":{"code":"overloaded","message":"x"}}"#).unwrap();
        assert!(check_submit_flags(&error, false, None).unwrap_err().contains("overloaded"));
    }

    #[test]
    fn the_version_check_rejects_anything_but_one_step() {
        let ack = |v: u64| {
            parse(format!(r#"{{"ok":true,"op":"replace","version":{v}}}"#).as_bytes()).unwrap()
        };
        assert_eq!(check_version_step(&ack(8), 7), Ok(8));
        assert!(check_version_step(&ack(7), 7).is_err());
        assert!(check_version_step(&ack(9), 7).is_err());
        assert_eq!(registered_version(&ack(1)), Ok(1));
    }

    #[test]
    fn the_pair_count_check_rejects_any_other_count() {
        assert_eq!(check_surviving(240, 240), Ok(()));
        assert!(check_surviving(239, 240).is_err());
        assert!(check_surviving(241, 240).is_err());
    }

    #[test]
    fn the_cold_reference_is_independent_of_warm_state() {
        let (source, target, result) = small_result();
        let again = cold_result(&source, &target);
        assert_eq!(expected_reply(1, false, &again), expected_reply(1, false, &result));
    }
}
