#!/usr/bin/env bash
# Self-check of the workspace's lint declarations: compile one known-bad
# snippet per rule inside smn-telemetry, which is at once a library root,
# a deterministic path and a cast path, and require clippy to reject it
# and to name the rule's lint. The same snippet inside `#[cfg(test)]` must
# pass for the rules that exempt tests, and still fail for the rules that
# apply everywhere (wall-clock reads, waivers without a reason).
#
# Run from the workspace root: .github/clippy-probes.sh
# It adds a probe module to the crate and restores the crate on exit.
set -euo pipefail

lib=crates/telemetry/src/lib.rs
probe=crates/telemetry/src/lint_probe.rs
cp "$lib" "$lib.orig"
trap 'mv "$lib.orig" "$lib"; rm -f "$probe"' EXIT
printf '#[allow(dead_code, reason = "compiled only to be linted")]\nmod lint_probe;\n' >> "$lib"

failures=0
fail() {
    echo "FAIL: $*" >&2
    failures=$((failures + 1))
}

# clippy_on TARGET...: lint the crate's given targets with warnings denied;
# prints clippy's output and returns its status.
clippy_on() {
    cargo clippy -q -p smn-telemetry "$@" -- -D warnings 2>&1
}

# probe LINT IN_TESTS SNIPPET: IN_TESTS is `pass` when tests are exempt.
probe() {
    local lint=$1 in_tests=$2 snippet=$3 out
    printf '%s\n' "$snippet" > "$probe"
    if out=$(clippy_on --lib); then
        fail "$lint: clippy accepted the snippet in library code"
    elif ! grep -q "index.html#$lint" <<< "$out"; then
        fail "$lint: clippy failed without naming the lint"$'\n'"$out"
    fi
    printf '#[cfg(test)]\nmod tests {\n%s\n}\n' "$snippet" > "$probe"
    if out=$(clippy_on --lib --tests); then
        [ "$in_tests" = pass ] || fail "$lint: clippy accepted the snippet in test code"
    else
        [ "$in_tests" = fail ] || fail "$lint: clippy rejected the snippet in test code"$'\n'"$out"
    fi
    echo "ok: $lint"
}

probe unwrap_used pass 'pub fn f(x: Option<u8>) -> u8 { x.unwrap() }'
probe expect_used pass 'pub fn f(x: Option<u8>) -> u8 { x.expect("some") }'
probe panic pass 'pub fn f() { panic!("boom") }'
probe unreachable pass 'pub fn f() { unreachable!() }'
probe todo pass 'pub fn f() { todo!() }'
probe unimplemented pass 'pub fn f() { unimplemented!() }'
probe disallowed_methods fail 'pub fn f() -> std::time::Instant { std::time::Instant::now() }'
probe disallowed_methods fail 'pub fn f() -> std::time::SystemTime { std::time::SystemTime::now() }'
probe disallowed_types pass 'pub fn f(m: &std::collections::HashMap<u8, u8>) -> usize { m.len() }'
probe disallowed_types pass 'pub fn f(s: &std::collections::HashSet<u8>) -> usize { s.len() }'
probe cast_possible_truncation pass 'pub fn f(x: u64) -> u32 { x as u32 }'
probe allow_attributes_without_reason fail '#[allow(clippy::cast_possible_truncation)]
pub fn f(x: u64) -> u32 { x as u32 }'

[ "$failures" -eq 0 ] || { echo "$failures probe(s) failed" >&2; exit 1; }
echo "every probe rejected as declared"
