#!/usr/bin/env bash
# Docs link-and-drift check (the `docs-check` CI stage).
#
#   scripts/check_docs.sh [repo_root]
#
# Four guards over README.md, DESIGN.md, EXPERIMENTS.md and docs/*.md,
# all pure grep/awk — no build:
#
#   1. Internal markdown links resolve: every `[text](target)` whose
#      target is not an external URL must name an existing file
#      (relative to the linking document), and a `#fragment` — same-file
#      or cross-file — must match a heading's GitHub-style anchor slug.
#   2. No phantom identifiers: every `fra_[a-z0-9_]+` token mentioned in
#      the docs (metric families, CMake targets, helper functions) must
#      appear somewhere in src/, tests/, bench/, or a CMakeLists.txt —
#      a doc naming a metric the code no longer registers fails here.
#   3. No undocumented metrics: every "fra_..." string literal the code
#      registers must be mentioned in at least one checked document —
#      new metric families must land with their docs.
#   4. No phantom option fields: every `Options::<field>` the docs name,
#      and every field of an `options.<…>.<field>` chain in their code
#      samples (`options.cache.exact_capacity = 4096;`), must be declared
#      as a field (`<type> <field> =`, `;` or `{`) in a src/ header — a
#      doc still naming a removed knob fails here.
#
# Plus a pinned check that the fra_bufpool_* families stay documented in
# docs/observability.md.
set -uo pipefail

REPO_ROOT="${1:-$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)}"
cd "${REPO_ROOT}"

DOCS=(README.md DESIGN.md EXPERIMENTS.md docs/*.md)
failures=0

fail() {
  echo "FAIL: $*" >&2
  failures=$((failures + 1))
}

# GitHub-style anchor slug of a markdown heading: lower-case, drop
# everything but alphanumerics/spaces/hyphens, spaces become hyphens.
anchors_of() {
  sed -n 's/^#\{1,6\} //p' "$1" \
    | tr '[:upper:]' '[:lower:]' \
    | sed -e 's/[^a-z0-9 -]//g' -e 's/ /-/g'
}

echo "== docs-check: internal links =="
for doc in "${DOCS[@]}"; do
  dir="$(dirname "${doc}")"
  # One markdown link target per line; inline code spans are stripped
  # first so `foo](bar)` inside backticks cannot fake a link.
  while IFS= read -r target; do
    case "${target}" in
      http://*|https://*|mailto:*) continue ;;
    esac
    file="${target%%#*}"
    fragment=""
    [[ "${target}" == *#* ]] && fragment="${target#*#}"
    if [[ -z "${file}" ]]; then
      anchor_file="${doc}"                      # same-file #fragment
    else
      anchor_file="${dir}/${file}"
      if [[ ! -e "${anchor_file}" ]]; then
        fail "${doc}: broken link target '${target}'"
        continue
      fi
    fi
    if [[ -n "${fragment}" ]]; then
      if ! anchors_of "${anchor_file}" | grep -qx "${fragment}"; then
        fail "${doc}: link '#${fragment}' matches no heading in ${anchor_file}"
      fi
    fi
  done < <(sed 's/`[^`]*`//g' "${doc}" | grep -oE '\]\([^)]+\)' \
             | sed -e 's/^](//' -e 's/)$//')
done

echo "== docs-check: fra_* identifiers in docs exist in code =="
code_tokens="$(grep -rhoE 'fra_[a-z0-9_]+' src tests bench CMakeLists.txt \
                 --include='*.h' --include='*.cc' --include='CMakeLists.txt' \
                 2>/dev/null | sort -u)"
doc_tokens="$(grep -hoE 'fra_[a-z0-9_]+' "${DOCS[@]}" | sort -u)"
while IFS= read -r token; do
  [[ -z "${token}" ]] && continue
  grep -qx "${token}" <<<"${code_tokens}" && continue
  # Prometheus exposition suffixes on a real family are fine
  # (fra_query_latency_microseconds_bucket, …_sum, …_count).
  base="${token%_bucket}"; base="${base%_sum}"; base="${base%_count}"
  [[ "${base}" != "${token}" ]] && grep -qx "${base}" <<<"${code_tokens}" \
    && continue
  # Brace shorthand like fra_tcp_pool_{open,busy}_connections leaves a
  # trailing-underscore stem; accept it when a real token extends it.
  [[ "${token}" == *_ ]] && grep -q "^${token}" <<<"${code_tokens}" && continue
  fail "docs mention '${token}' but it appears nowhere in src/tests/bench"
done <<<"${doc_tokens}"

echo "== docs-check: registered metrics are documented =="
registered="$(grep -rhoE '"fra_[a-z0-9_]+"' src | tr -d '"' | sort -u)"
while IFS= read -r metric; do
  [[ -z "${metric}" ]] && continue
  if ! grep -qx "${metric}" <<<"${doc_tokens}"; then
    fail "metric '${metric}' is registered in src/ but documented nowhere"
  fi
done <<<"${registered}"

echo "== docs-check: Options fields named in docs exist in src/ =="
while IFS= read -r field; do
  [[ -z "${field}" ]] && continue
  grep -rqE "[A-Za-z0-9_>*&]+[[:space:]]+${field}[[:space:]]*(=|;|\{)" \
      src --include='*.h' \
    || fail "docs name options field '${field}' but no src/ header declares it"
done < <({ grep -hoE 'Options::[a-z_][a-z0-9_]*' "${DOCS[@]}" \
             | sed 's/^Options:://'
           grep -hoE '\boptions(\.[a-z_][a-z0-9_]*)+' "${DOCS[@]}" \
             | sed 's/^options\.//' | tr '.' '\n'; } | sort -u)

echo "== docs-check: buffer-pool metric families documented =="
# The fra_bufpool_* families are the observable surface of the zero-copy
# data plane; they must stay documented where operators look for them
# (guard 3 accepts any doc — these are pinned to observability.md).
for family in fra_bufpool_acquires_total fra_bufpool_releases_total \
              fra_bufpool_free_bytes fra_bufpool_free_buffers; do
  grep -q "${family}" docs/observability.md \
    || fail "buffer-pool family '${family}' missing from docs/observability.md"
done

if [[ ${failures} -gt 0 ]]; then
  echo "docs-check: ${failures} failure(s)" >&2
  exit 1
fi
echo "docs-check: OK"
