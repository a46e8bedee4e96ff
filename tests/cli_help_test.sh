#!/usr/bin/env bash
# Help-text audit for janus_cli: the usage screen and the parser must
# name exactly the same flag set, in both directions —
#
#   * every --flag the help text documents must appear as a string
#     literal in the parser/whitelists (tools/janus_cli.cpp), so the
#     docs cannot advertise a flag the binary rejects;
#   * every --flag the source parses must appear in the help text, so a
#     new flag cannot ship undocumented.
#
# Plus the frontier subcommand's contract: `help`/`--help` exit 0 and
# document `frontier`; frontier without its required --step exits 2 with
# a one-line error naming the flag; an unknown flag exits 2.  And the
# float flags' range checks: NaN (and inf, where it has no meaning) fails
# like any out-of-range value, with one `janus_cli:` line and exit 1.
#
# usage: cli_help_test.sh /path/to/janus_cli
set -u

cli="${1:?usage: cli_help_test.sh /path/to/janus_cli}"
repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
src="$repo/tools/janus_cli.cpp"
failures=0

fail() {
  echo "FAIL: $*" >&2
  failures=$((failures + 1))
}

# ---- help exits 0, under both spellings -------------------------------
help_text=$("$cli" help 2>&1) || fail "'janus_cli help' exited nonzero"
"$cli" --help >/dev/null 2>&1 || fail "'janus_cli --help' exited nonzero"
case "$help_text" in
  *"janus_cli frontier"*) ;;
  *) fail "help text does not document the frontier subcommand" ;;
esac

# ---- documented vs parsed flag sets, both directions ------------------
documented=$(printf '%s\n' "$help_text" | grep -oE -- '--[a-z0-9-]+' \
             | sort -u)
parsed=$(grep -oE '"--[a-z0-9-]+"' "$src" | tr -d '"' | sort -u)
[ -n "$documented" ] || fail "no flags found in help text"
[ -n "$parsed" ] || fail "no flag literals found in $src"

for flag in $documented; do
  printf '%s\n' "$parsed" | grep -qx -- "$flag" \
    || fail "help documents $flag but the source never parses it"
done
for flag in $parsed; do
  printf '%s\n' "$documented" | grep -qx -- "$flag" \
    || fail "source parses $flag but the help text never documents it"
done

# ---- frontier flag contract -------------------------------------------
err=$("$cli" frontier 2>&1 >/dev/null)
code=$?
[ "$code" -eq 2 ] || fail "frontier without --step exited $code, want 2"
[ "$(printf '%s\n' "$err" | wc -l)" -eq 1 ] \
  || fail "missing --step error is not one line: $err"
case "$err" in
  *"--step"*) ;;
  *) fail "missing --step error does not name the flag: $err" ;;
esac

"$cli" frontier --step 10 --no-such-flag >/dev/null 2>&1
[ $? -eq 2 ] || fail "frontier with an unknown flag did not exit 2"

# ---- float flags reject NaN and meaningless inf ----------------------
bad_float() {
  local err code
  err=$("$cli" "$@" 2>&1 >/dev/null)
  code=$?
  [ "$code" -eq 1 ] || fail "'$*' exited $code, want 1"
  [ "$(printf '%s\n' "$err" | wc -l)" -eq 1 ] \
    || fail "'$*' error is not one line: $err"
  case "$err" in
    "janus_cli: "*) ;;
    *) fail "'$*' error lacks the janus_cli: prefix: $err" ;;
  esac
}
bad_float fleet --epoch-s -1
bad_float fleet --epoch-s nan
bad_float fleet --contention-alpha nan
bad_float fleet --contention-alpha inf
bad_float frontier --step nan
bad_float frontier --step 10 --stop nan
bad_float frontier --step 10 --slo-target nan

# The literal 'inf' spelling of --epoch-s still means "never reconcile".
"$cli" fleet --epoch-s inf --tenants 2 --requests 20 >/dev/null 2>&1 \
  || fail "fleet --epoch-s inf did not run"

if [ "$failures" -ne 0 ]; then
  echo "cli_help_test: $failures failure(s)" >&2
  exit 1
fi
echo "cli_help_test: OK"
