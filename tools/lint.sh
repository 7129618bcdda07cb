#!/usr/bin/env sh
# tools/lint.sh — the one-command local lint gate, mirroring the CI
# lint job: gofmt, standard go vet, the project's invariant suite
# (cmd/sitlint, built -race like CI, over the whole module), then
# govulncheck when available.
#
#   ./tools/lint.sh
#
# It takes no arguments.
set -eu

cd "$(dirname "$0")/.."

if [ "$#" -gt 0 ]; then
    echo "usage: tools/lint.sh (no arguments: it lints the whole module)" >&2
    exit 1
fi

echo "== gofmt" >&2
# Lists any file gofmt would change (on stderr) and fails on it.
test -z "$(gofmt -l . | tee /dev/stderr)"

echo "== go vet" >&2
go vet ./...

echo "== sitlint invariant suite (race-built)" >&2
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
go build -race -o "$tmp/sitlint" ./cmd/sitlint
"$tmp/sitlint"

if command -v govulncheck >/dev/null 2>&1; then
    echo "== govulncheck" >&2
    govulncheck ./...
else
    echo "== govulncheck not installed; skipped (CI runs it)" >&2
fi

echo "lint OK" >&2
