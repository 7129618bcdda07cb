#!/usr/bin/env sh
# tools/lint.sh — the one-command local lint gate, mirroring the CI
# lint job exactly: gofmt, standard go vet, the project's invariant suite
# (cmd/sitlint, built -race like CI) run as a vet tool, the
# suppression audit, then govulncheck when available.
#
#   ./tools/lint.sh                          # whole module
#   ./tools/lint.sh ./internal/core          # a package subset
#   ./tools/lint.sh -sarif > sitlint.sarif   # also the CI SARIF artifact
#   ./tools/lint.sh -analyzers=lockorder     # one analyzer, standalone
#
# Any argument starting with "-" is passed through to a standalone
# sitlint run (use the -flag=value form for flags that take a value),
# so a local invocation can produce exactly what CI archives. Without
# flags the standalone run is skipped: the vettool pass already
# analyzed everything.
set -eu

cd "$(dirname "$0")/.."

flags=""
pkgs=""
for arg in "$@"; do
    case "$arg" in
    -*) flags="$flags $arg" ;;
    *) pkgs="$pkgs $arg" ;;
    esac
done
[ -n "$pkgs" ] || pkgs="./..."

echo "== gofmt" >&2
# Lists any file gofmt would change (on stderr) and fails on it.
test -z "$(gofmt -l . | tee /dev/stderr)"

echo "== go vet" >&2
# shellcheck disable=SC2086
go vet $pkgs

echo "== sitlint invariant suite (race-built vettool)" >&2
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
go build -race -o "$tmp/sitlint" ./cmd/sitlint
# shellcheck disable=SC2086
go vet -vettool="$tmp/sitlint" $pkgs

echo "== sitlint suppression audit" >&2
# Audit chatter goes to stderr so `lint.sh -sarif > file` captures
# nothing but the SARIF document on stdout.
# shellcheck disable=SC2086
"$tmp/sitlint" -audit $pkgs >&2

if [ -n "$flags" ]; then
    echo "== sitlint$flags" >&2
    # shellcheck disable=SC2086
    "$tmp/sitlint" $flags $pkgs
fi

if command -v govulncheck >/dev/null 2>&1; then
    echo "== govulncheck" >&2
    # shellcheck disable=SC2086
    govulncheck $pkgs
else
    echo "== govulncheck not installed; skipped (CI runs it)" >&2
fi

echo "lint OK" >&2
