#!/bin/sh
# The enclave library's dependencies, pinned. lib/core (the `engarde`
# library) must link exactly crypto, x86, elf64, sgx and channel, and
# each of those may link only others from the same set, so the set is
# the enclave's whole library closure. A new dependency has to edit
# this file on purpose.
#
# Run from the directory that holds lib/: sh test/enclave_deps.sh .
# (dune runs it from _build/default/test with `..`).

root=${1:-..}
allowed="channel crypto elf64 sgx x86"

libraries() {
  tr '\n' ' ' < "$root/lib/$1/dune" |
    sed -n 's/.*(libraries \([^)]*\)).*/\1/p' |
    tr -s ' ' '\n' | sed '/^$/d' | sort | tr '\n' ' ' | sed 's/ $//'
}

status=0
core=$(libraries core)
if [ "$core" != "$allowed" ]; then
  echo "lib/core links [$core]; the enclave library must link exactly [$allowed]"
  status=1
fi
for dir in channel crypto elf sgx x86; do
  for lib in $(libraries $dir); do
    case " $allowed " in
      *" $lib "*) ;;
      *) echo "lib/$dir links $lib, outside the enclave closure [$allowed]"; status=1 ;;
    esac
  done
done
exit $status
