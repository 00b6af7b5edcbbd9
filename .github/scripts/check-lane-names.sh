#!/usr/bin/env bash
# `go test -run NoSuchTest` passes: a lane whose name list has drifted from
# the tests that exist checks nothing and stays green. This reads every
# `go test` command in ci.yml, lists what its packages define, and fails
# when any name in a -run / -bench / -fuzz list matches none of it.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/../.."

status=0
while IFS= read -r cmd; do
  read -r -a words <<<"$cmd"
  pkgs=()
  for w in "${words[@]}"; do
    [[ $w == ./* ]] && pkgs+=("$w")
  done
  defined=$(go test -list '.*' "${pkgs[@]}" | grep -Ev '^(ok|\?) ' || true)
  while IFS= read -r list; do
    IFS='|' read -r -a names <<<"$list"
    for name in "${names[@]}"; do
      if ! grep -Eq -- "$name" <<<"$defined"; then
        echo "ci.yml: '$name' matches no test, benchmark or fuzz target in ${pkgs[*]}"
        status=1
      fi
    done
  done < <(grep -oE -- "-(run|bench|fuzz) '[^']+'" <<<"$cmd" | sed -E "s/^-[a-z]+ '//; s/'$//" | grep -vx '\^\$' || true)
done < <(sed -e ':a' -e '/\\$/{N;s/\\\n//;ba' -e '}' .github/workflows/ci.yml | grep -E "go test .*-(run|bench|fuzz) '")
exit $status
