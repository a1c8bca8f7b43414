#!/usr/bin/env bash
# Stdout digests of the gate commands: every check must print its expected
# value, or the script stops at the first that does not and names its line.
# Run from anywhere, with `bash tests/gates.sh`; it reads the package from
# src/ of the checkout it lives in.
#
# irreducibles -A 19 -F 150 (109,997 lines) and semigroups -A 11 -F 59
# (234,269 lines) must print what the tree walk and the class
# expansion printed before the prefix search replaced them.  The
# JSON and solve lines read off the member bitmap must print what
# json.dumps of the record dicts and the gap-tuple solve path
# printed: irreducibles -F 71 --format json (19,812 lines),
# semigroups -A 11 -F 50 --format json (67,669), solve -B 5,7,71
# (19,776) and solve -B 51,53 --format json (410).  The maximality
# test on the closure step must keep and reject what the (b, k)
# witness loop did: maximal -B 37,41,43 (100 lines, 94 candidates
# rejected) and maximal -A 10 -B 61,67 (62 lines, 68 rejected).
# oracle hitting-sets -A 4,9 -B 11,14 --format json (1 line) pins
# the oracle's solution sets rendered as solve records.  The lines
# rendered a chunk at a time must print what the one-leaf renderer
# printed: the smallest F, B with small entries and multiplicity 2,
# a wide irreducible family in JSON, and --limit cutting the first
# chunk, with its exact stderr note.  The lines read off the byte
# tables must print what the bit-position renderer printed at their
# widest: maximal -B 1..200 (1 line, generators 201..401, the whole
# token range) and solve -A 150..199 -B 1..149,200 in JSON (1 line).
# The packed witness test must keep what the per-leaf test kept:
# maximal -B 61,67 (1,977 lines; 4,573 of its 4,625 tops meet B, in
# 19 chunks) and solve -A 9 -B 40,47,53 --format json (13 lines; all
# 20 of its tops meet B).  --limit cutting a chunk that the witness
# test shrank, where the renderer cuts the chunk's bit-0 mask:
# maximal -B 61,67 --limit 300 (28 of the 97 records of its third
# chunk), with its exact stderr note.  The witness of an infeasible
# query, read off the prefix tables of the coin table, must be the
# one the list dynamic program gave: exit code 2 and the exact
# stderr line of semigroups -A 7 -F 140, irreducibles -A 6,10,15
# -F 199 and maximal -A 12,13,14 -B 200.  The full-range search must
# emit its free tails in the order the decisions gave them:
# semigroups -F 35 (292,081 lines, most of them in tails) and
# semigroups -A 5 -F 42 --format json (154 lines).  The free tails
# must stream: the first line of semigroups -F 200 and of
# irreducibles -F 200 must arrive under a 400 MB address-space cap
# (ulimit -v), the first one the line of <201, ..., 401> that
# maximal -B 1..200 prints.  The argument parser's plain path, which
# reads the options straight off the subparser's actions, must print
# what argparse's parse gave: the one-line queries maximal -A 8
# -B 34,38 and solve -A 6 -B 33,37,46.  Its argparse fallback must
# print the same as the plain --format json: maximal -B 11,13 with
# the abbreviation --form json, and with --format=json.  The oracle
# subcommands at their caps, past the F <= 14 of the differential
# grids, must print what the main commands print: oracle semigroups
# -F 16 (205 lines) and -A 5 -F 16 --format json (14 lines), oracle
# irreducibles -F 16 --format json (7 lines), and oracle hitting-sets
# -B 13,14 --format json against solve (5 lines).  The JSON lines,
# written by the same table pass as the text with the separator of
# json.dumps in the byte tables, must print what the bare-comma tables
# and one replace over the chunk printed: solve -B 5,7,71 --format json
# (19,776 lines; 256-record chunks that list every gap twice) and
# maximal -B 61,67 --format json (1,977 lines; chunks that the witness
# test shrank).  About 9 s on a 2-core x86-64 host.

set -e
cd "$(dirname "$0")/.."
trap 'echo "gate check failed: tests/gates.sh line $LINENO" >&2' ERR
digest() { PYTHONPATH=src python -m numsem.cli "$@" | sha256sum | cut -d' ' -f1; }
witness() { code=0; err=$(PYTHONPATH=src python -m numsem.cli "$@" 2>&1 >/dev/null) || code=$?; echo "$code $err"; }
test "$(digest irreducibles -A 19 -F 150)" = 303d0e7fab23b73acaa5889c6127e87bb9da849bc93644385ce719969feb3266
test "$(digest semigroups -A 11 -F 59)" = 22af0bad7880f175e088f949d24cf1d394ad7801b9c2ef967a8490ed1a2f38f9
test "$(digest irreducibles -F 71 --format json)" = 7b1aaefc88983487fd3cc336638ce1ac338d7299c7e0ba94e7ad8e54255af82a
test "$(digest semigroups -A 11 -F 50 --format json)" = a4433f507ffd2cb5f84713c954dd694a5c776fde06c26f1f86fc24e1903b7896
test "$(digest solve -B 5,7,71)" = 24e29c3ece6d7f5ebc327635919e966aad768d84c15c76ebf0da1559826efbc6
test "$(digest solve -B 5,7,71 --format json)" = 7fce2b523137cdaa36ea2b18116ac2b36afb32a825e05db99dedabeb4f903c43
test "$(digest solve -B 51,53 --format json)" = 8f9ab53b239a495a9e0c9badc8384c019ad6acfe5ec3be3ac86980c564f01d40
test "$(digest maximal -B 37,41,43)" = 1626905bd2e9cacff24cd768417d66879f736d3d5e6fca5904fa2527407bc2b5
test "$(digest maximal -A 10 -B 61,67)" = 3b66c1b48908b0098ada109fb61af3f726737bee96e5ac403c8907bb10930cfe
test "$(digest oracle hitting-sets -A 4,9 -B 11,14 --format json)" = 471c64b79f5a83c3221753222e404631240c651be8d49272f848d979bce7a656
test "$(digest semigroups -F 4 --format json)" = f3b7c0ade3a89c23550fe01351ce14eb541824a41dec8bd61eac7a2e2fb35cb9
test "$(digest maximal -B 1,2,3)" = cffbc6212777baceae3e4e819224555b583c96b4f03fb0c45792b2e314526337
test "$(digest solve -A 3 -B 2,4,5,7 --format json)" = 8969837392d54b4e92ca44f9beb53d7f1a47495d49d74444e8f12800fe3c33ee
test "$(digest irreducibles -A 7 -F 90 --format json)" = 67c13d5a775aae49131903ceef22396ad05acc12da594dbcd5d1f6042418dd4c
test "$(digest semigroups -A 11 -F 59 --limit 3)" = 3383a47d945deda4c3219c480a9bbe4a3288cc593fb664d21c10a3566cac1029
test "$(PYTHONPATH=src python -m numsem.cli semigroups -A 11 -F 59 --limit 3 2>&1 >/dev/null)" = "output truncated to 3 of 234269 records"
test "$(digest maximal -B $(seq -s, 1 200))" = c9437705a49dcfc1e0f4724b5a23552cdff29927d6cabd7302bebd6e70f044f8
test "$(digest solve -A $(seq -s, 150 199) -B $(seq -s, 1 149),200 --format json)" = cd8d438b350399ae2d50beca3e50126abd6ce19cbe80bd6c951203f0fe63bc88
test "$(digest maximal -B 61,67)" = 56a3e994abf206c422a1338589ec60d4fd460c32228b5abcf368f55d734f2555
test "$(digest maximal -B 61,67 --format json)" = 0e76029cc50d4c0d59219e1613a1a393cb54c34b3921afffdb2f0c81c4c69237
test "$(digest solve -A 9 -B 40,47,53 --format json)" = b296fc71f1037c695607e861b5bda0dd2b5df42f100b4934511210562d2fca1c
test "$(digest maximal -B 61,67 --limit 300)" = e60b05a87396a45508816682b187190efeae035165b865e372491068c7520866
test "$(PYTHONPATH=src python -m numsem.cli maximal -B 61,67 --limit 300 2>&1 >/dev/null)" = "output truncated to 300 of 1977 records"
test "$(witness semigroups -A 7 -F 140)" = "2 infeasible: 140 = 20·7 ∈ ⟨A⟩"
test "$(witness irreducibles -A 6,10,15 -F 199)" = "2 infeasible: 199 = 29·6 + 10 + 15 ∈ ⟨A⟩"
test "$(witness maximal -A 12,13,14 -B 200)" = "2 infeasible: 200 = 8·12 + 8·13 ∈ ⟨A⟩"
test "$(digest semigroups -F 35)" = f7056b8a306e75e0109899f030a8e6e2c4018aa8bf24de515062966ecde87fa7
test "$(digest semigroups -A 5 -F 42 --format json)" = 623ba4eb422cca86a45b15ca7a051880ff4e2c27e6ee8d1fe8e8116bc5fbddd2
test "$(digest maximal -A 8 -B 34,38)" = 4de1ec3c6b34f44ba25024a0b1ce63c8f3da51994e6b17f741dd24aa9a8f501f
test "$(digest solve -A 6 -B 33,37,46)" = 5015b364a882884abb0432ab02a4e9d576f09e319f39df9804c847ac4e287296
test "$(digest maximal -B 11,13 --form json)" = b91ac565c4e7bbb4aedf0c55c6e05230f492af11769afabadda8c166a7c1fdc3
test "$(digest maximal -B 11,13 --format=json)" = b91ac565c4e7bbb4aedf0c55c6e05230f492af11769afabadda8c166a7c1fdc3
test "$(digest oracle semigroups -F 16)" = 07857b46201bc1f345603fcf3325993562d23d6fad37dc71a2d03473b866376f
test "$(digest semigroups -F 16)" = 07857b46201bc1f345603fcf3325993562d23d6fad37dc71a2d03473b866376f
test "$(digest oracle semigroups -A 5 -F 16 --format json)" = 7ea5a815c2f17a8fb060f8616d513180e1611de0115f6d2485e4431633d2fff0
test "$(digest semigroups -A 5 -F 16 --format json)" = 7ea5a815c2f17a8fb060f8616d513180e1611de0115f6d2485e4431633d2fff0
test "$(digest oracle irreducibles -F 16 --format json)" = 4f9909e5816b91bee387f5291428b5c41ba6f7ed35e95fe5e234a59f55e6552c
test "$(digest irreducibles -F 16 --format json)" = 4f9909e5816b91bee387f5291428b5c41ba6f7ed35e95fe5e234a59f55e6552c
test "$(digest oracle hitting-sets -B 13,14 --format json)" = 9d1e1254b821b410864014bfe76afcffa32406fbd52f9845e63ba34579a6e5a3
test "$(digest solve -B 13,14 --format json)" = 9d1e1254b821b410864014bfe76afcffa32406fbd52f9845e63ba34579a6e5a3
capped() { bash -c "ulimit -v 400000; PYTHONPATH=src python -m numsem.cli $* | head -n 1" | sha256sum | cut -d' ' -f1; }
test "$(capped semigroups -F 200)" = c9437705a49dcfc1e0f4724b5a23552cdff29927d6cabd7302bebd6e70f044f8
test "$(capped irreducibles -F 200)" = 6bea6fe804a848690b658e11d23edb307e7181edb1267e1156045b9e3dfb721b
echo "all gate checks passed"
