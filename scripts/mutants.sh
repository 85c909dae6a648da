#!/usr/bin/env bash
# Mutation smoke: shows that the test gates can still fail.
#
# Each scripts/mutants/*.patch makes one deliberate change to the tree.
# Its header names the CI step the mutant belongs to and the command,
# run inside that step, that must fail on it:
#
#   # mutant: <what the change breaks>
#   # step: <CI step name>
#   # kill: <command>
#
# The script copies the working tree (tracked and unignored files) once
# into a temporary directory, stamping every file with the copy's time,
# so a build an earlier run left in the shared target directory (built
# with that run's last mutant applied) counts as stale. For each patch
# it applies the patch there, runs the kill command with a
# CARGO_TARGET_DIR shared by all mutants (so only the mutated crates
# rebuild), and reverts the patch. A mutant is killed when its command
# fails after a successful build; a patch that no longer applies, or a
# mutant that does not compile, is an error. The script prints one line
# per mutant and exits non-zero if any mutant survives or errs.
#
# Usage: scripts/mutants.sh [scripts/mutants/NAME.patch ...]
#   MUTANTS_TARGET_DIR  shared target directory
#                       (default: target/mutants under the repo root)
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
target=${MUTANTS_TARGET_DIR:-$root/target/mutants}
if [ "$#" -gt 0 ]; then
  patches=("$@")
else
  patches=("$root"/scripts/mutants/*.patch)
fi

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
tree=$work/tree
mkdir -p "$tree" "$target"
(cd "$root" && git ls-files -z --cached --others --exclude-standard \
  | tar --null --ignore-failed-read -T - -cf -) | tar -xmf - -C "$tree"

header() { sed -n "s/^# $1: //p" "$2" | head -n 1; }

failed=0
for patch in "${patches[@]}"; do
  patch=$(cd "$(dirname "$patch")" && pwd)/$(basename "$patch")
  name=$(basename "$patch" .patch)
  kill_cmd=$(header kill "$patch")
  step=$(header step "$patch")
  if [ -z "$kill_cmd" ]; then
    echo "ERROR    $name: no '# kill:' line in its header"
    failed=1
    continue
  fi
  if ! (cd "$tree" && git apply "$patch"); then
    echo "ERROR    $name: patch does not apply"
    failed=1
    continue
  fi
  log=$work/$name.log
  if (cd "$tree" && CARGO_TARGET_DIR=$target bash -c "$kill_cmd") >"$log" 2>&1; then
    echo "SURVIVED $name: '$kill_cmd' passed (CI step: $step)"
    failed=1
  elif grep -q "could not compile" "$log"; then
    echo "ERROR    $name: the mutant does not compile"
    grep -m 5 "^error" "$log" || true
    failed=1
  else
    echo "KILLED   $name: by '$kill_cmd' (CI step: $step)"
    grep -m 3 -E "^test .* FAILED$|panicked at" "$log" | sed 's/^/           /' || true
  fi
  (cd "$tree" && git apply -R "$patch")
done
exit "$failed"
