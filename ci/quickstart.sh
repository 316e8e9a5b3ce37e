#!/usr/bin/env bash
# The README quickstart through the CLI, run from the repository root:
#   bash -e ci/quickstart.sh
# It exits 0 when every check below holds.
#
# Checks: honest report exits 0, loop-counter attack exits 3, a re-signed report with one path
# count changed exits 3 and one whose signed bytes lost their last byte exits 2, as does a
# report nested 200,000 lists deep, honest reports of back-to-back and nested flat loops, of a
# loop past the path-tree bound and of direct recursion exit 0 and one of them re-signed with a
# count changed exits 3, in-loop code-pointer attack exits 5, cfg of all five golden programs
# and measure reproduce the goldens, direct recursion, flat loops (at the default path width and
# at width 1), degraded loop contexts, loops with no exit site and with two (a halt in the body,
# a backward exit), a data fault mid-pass and a jump-table dispatch loop's
# target table (at the default config and at -n 1 --path-width 4) included, two verifiers racing
# on one nonce accept once, malformed inputs (an old per-cycle trace, a trace whose last branch
# line is dropped, a pc-faulted trace with its cycles raised by one, a trace naming another
# program, a halted trace cut at its load of word 5 as a data fault though word 5 lies inside
# data memory and an attack on register 99 whose trigger never fires among them), a negative
# cycle cap, malformed nonce stores, a trace and a nonce store nested 200,000 lists deep and a
# directory as a path exit 1 without a traceback, and the absorb model answers at once for an
# arrival at cycle 10^12. A run capped at its own cycle count writes the uncapped trace byte for
# byte, and one capped a cycle short exits 6.
set -o pipefail
root=$PWD
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"
cfattest() { PYTHONPATH="$root/src" python -m cfattest.cli "$@"; }
PYTHONPATH="$root/src:$root/tests" python -c \
  "import programs; print(programs.WHILE_IF_ELSE, end='')" > guest.s
cfattest asm guest.s --id demo -o prog.json
for name in WHILE_IF_ELSE DISPATCH_LOOP RECURSIVE CALL_IN_LOOP NESTED_4; do
  PYTHONPATH="$root/src:$root/tests" python -c \
    "import programs; print(programs.$name, end='')" > cfg_guest.s
  cfattest asm cfg_guest.s --id demo -o cfg_prog.json
  cfattest cfg cfg_prog.json -o cfg.json
  diff cfg.json "$root/tests/golden/cfg_${name,,}.json"
done
cfattest keygen -o keys
cfattest challenge --id demo --input 3,0,1,0 -o ch.json
cfattest attest prog.json ch.json keys/sk.hex -o report.json
python -c "import json, sys; keys = sorted(json.load(open('report.json'))); \
  sys.exit(keys != ['program_hash_hex', 'program_id', 'sig_hex', 'signed_hex'])"
cfattest verify report.json ch.json keys/pk.hex prog.json --nonce-store nonces.json
cfattest challenge --id demo --input "$(python -c "print(','.join(['4000'] + ['1'] * 4000))")" \
  -o race_ch.json
cfattest attest prog.json race_ch.json keys/sk.hex -o race_report.json
cfattest verify race_report.json race_ch.json keys/pk.hex prog.json \
  --nonce-store race.json 2> race_err1.txt & first=$!
cfattest verify race_report.json race_ch.json keys/pk.hex prog.json \
  --nonce-store race.json 2> race_err2.txt & second=$!
codes=()
for pid in "$first" "$second"; do
  code=0
  wait "$pid" || code=$?
  codes+=("$code")
done
cat race_err1.txt race_err2.txt
test "$(printf '%s\n' "${codes[@]}" | sort | tr '\n' ' ')" = "0 2 "
if grep -q Traceback race_err1.txt race_err2.txt; then exit 1; fi
python -c "import json, sys; stored = json.load(open('race.json')); \
  sys.exit(stored != [json.load(open('race_ch.json'))['nonce_hex']])"
cfattest inject --kind corrupt-loop-counter --trigger-pc 0x108 \
  --reg 2 --value 2 -o atk.json
cfattest run prog.json --input 3,0,1,0 -o trace.jsonl
cycles=$(python -c "import json; print(json.loads(open('trace.jsonl').readline())['cycles'])")
cfattest run prog.json --input 3,0,1,0 --cycle-cap "$cycles" -o capped.jsonl
cmp capped.jsonl trace.jsonl
code=0
cfattest run prog.json --input 3,0,1,0 --cycle-cap "$((cycles - 1))" -o short.jsonl 2> err.txt \
  || code=$?
cat err.txt
test "$code" -eq 6
if grep -q Traceback err.txt; then exit 1; fi
cfattest measure trace.jsonl --program prog.json | diff - "$root/tests/golden/measure.json"
cfattest measure trace.jsonl --program prog.json -n 1 --path-width 4 \
  | diff - "$root/tests/golden/measure_n1_w4.json"
cfattest run prog.json --input 3,0,1,0 --attack atk.json -o atk_trace.jsonl
cfattest measure atk_trace.jsonl --program prog.json \
  | diff - "$root/tests/golden/measure_attack.json"
PYTHONPATH="$root/src:$root/tests" python -c \
  "import programs; print(programs.DISPATCH_LOOP, end='')" > dispatch.s
cfattest asm dispatch.s --id dispatch -o dispatch.json
cfattest run dispatch.json --input 6,292,300,308,292,316,300 -o dispatch.jsonl
cfattest measure dispatch.jsonl --program dispatch.json \
  | diff - "$root/tests/golden/measure_dispatch.json"
cfattest measure dispatch.jsonl --program dispatch.json -n 1 --path-width 4 \
  | diff - "$root/tests/golden/measure_dispatch_n1_w4.json"
PYTHONPATH="$root/src:$root/tests" python -c \
  "import programs; print(programs.loops_in_one_loop(5), end='')" > ll.s
PYTHONPATH="$root/src:$root/tests" python -c \
  "import programs; print(programs.sequential_loops(6), end='')" > seq.s
PYTHONPATH="$root/src:$root/tests" python -c \
  "import programs; print(programs.PAST_TREE_BOUND, end='')" > ptb.s
cfattest asm ll.s --id ll -o ll.json
cfattest asm seq.s --id seq -o seq.json
PYTHONPATH="$root/src:$root/tests" python -c \
  "import programs; print(programs.RECURSIVE, end='')" > rec.s
cfattest asm ptb.s --id ptb -o ptb.json
cfattest asm rec.s --id rec -o rec.json
cfattest run rec.json --input 4 -o rec.jsonl
cfattest measure rec.jsonl --program rec.json \
  | diff - "$root/tests/golden/measure_recursive.json"
cfattest run ptb.json -o ptb.jsonl
cfattest measure ptb.jsonl --program ptb.json -o ptb_measure.json
cfattest run ll.json -o ll.jsonl
cfattest run seq.json --input 0,1,2,0,1,2 -o seq.jsonl
{ cfattest measure ll.jsonl --program ll.json
  cfattest measure seq.jsonl --program seq.json; } \
  | diff - "$root/tests/golden/measure_flat_loops.json"
{ cfattest measure ll.jsonl --program ll.json -n 1 --path-width 1
  cfattest measure seq.jsonl --program seq.json -n 1 --path-width 1; } \
  | diff - "$root/tests/golden/measure_flat_loops_w1.json"
cfattest challenge --id ll -o ll_ch.json
cfattest challenge --id seq --input 0,1,2,0,1,2 -o seq_ch.json
cfattest challenge --id ptb -o ptb_ch.json
cfattest challenge --id rec --input 4 -o rec_ch.json
for name in ll seq ptb rec; do
  cfattest attest "$name.json" "${name}_ch.json" keys/sk.hex -o "${name}_report.json"
  cfattest verify "${name}_report.json" "${name}_ch.json" keys/pk.hex "$name.json"
done
PYTHONPATH="$root/src:$root/tests" python -c \
  "import programs; print(programs.NESTED_4, end='')" > n4.s
cfattest asm n4.s --id n4 -o n4.json
cfattest run n4.json --input 2,1,2,2 -o n4.jsonl
cfattest measure n4.jsonl --program n4.json --max-depth 2 \
  | diff - "$root/tests/golden/measure_nested4_depth2.json"
for case in "HALT_IN_LOOP 3" "BACKWARD_EXIT 4,0,0,1,0,0,0,1,0"; do
  set -- $case
  PYTHONPATH="$root/src:$root/tests" python -c \
    "import programs; print(programs.$1, end='')" > shape.s
  cfattest asm shape.s --id demo -o shape.json
  cfattest run shape.json --input "$2" -o shape.jsonl
  cfattest measure shape.jsonl --program shape.json \
    | diff - "$root/tests/golden/measure_${1,,}.json"
done
PYTHONPATH="$root/src:$root/tests" python -c \
  "import programs; print(programs.FAULT_MID_PASS, end='')" > fmp.s
cfattest asm fmp.s --id fmp -o fmp.json
cfattest run fmp.json --input 5 -o fmp.jsonl
cfattest measure fmp.jsonl --program fmp.json \
  | diff - "$root/tests/golden/measure_fault_mid_pass.json"
cfattest attest prog.json ch.json keys/sk.hex --attack atk.json -o report.json
code=0
cfattest verify report.json ch.json keys/pk.hex prog.json || code=$?
test "$code" -eq 3
cfattest attest prog.json ch.json keys/sk.hex -o honest.json
for pair in "honest.json count_report.json" "seq_report.json seq_count_report.json"; do
  set -- $pair
  PYTHONPATH="$root/src" python -c "import json, sys; from cfattest import attestation as att; \
    d = json.load(open(sys.argv[1])); s = bytearray.fromhex(d['signed_hex']); \
    at = len(att.MAGIC) + att.DIGEST_LEN + 4 + 14; at += (s[at] + 7) // 8 + 8; s[at] ^= 1; \
    sk = bytes.fromhex(open('keys/sk.hex').read()); d['signed_hex'] = s.hex(); \
    d['sig_hex'] = att.sign(bytes.fromhex(d['program_hash_hex']) + s, sk).hex(); \
    json.dump(d, open(sys.argv[2], 'w'))" "$1" "$2"
done
python -c "import json; d = json.load(open('honest.json')); \
  d['signed_hex'] = d['signed_hex'][:-2]; json.dump(d, open('short_report.json', 'w'))"
python -c "open('nested.json', 'w').write('[' * 200000)"
for expect in "3 count_report.json ch.json prog.json" "2 short_report.json ch.json prog.json" \
              "3 seq_count_report.json seq_ch.json seq.json" "2 nested.json ch.json prog.json"; do
  set -- $expect
  code=0
  cfattest verify "$2" "$3" keys/pk.hex "$4" 2> err.txt || code=$?
  cat err.txt
  test "$code" -eq "$1"
  if grep -q Traceback err.txt; then exit 1; fi
done
PYTHONPATH="$root/src:$root/tests" python -c \
  "import programs; print(programs.INDIRECT_BACKEDGE, end='')" > ind.s
read -r inp cyc < <(PYTHONPATH="$root/src:$root/tests" python -c \
  "import programs as P; w = [5, P.INDIRECT_LOOP_ENTRY, 0]; \
  print(','.join(map(str, w)), P.nth_cycle_of(P.prog(P.INDIRECT_BACKEDGE, 'i'), w, 'jr', 2))")
cfattest asm ind.s --id i -o ind.json
cfattest challenge --id i --input "$inp" -o ind_ch.json
cfattest inject --kind corrupt-code-pointer --trigger-cycle "$cyc" \
  --reg 3 --value 0x99990000 -o ptr_atk.json
cfattest attest ind.json ind_ch.json keys/sk.hex --attack ptr_atk.json -o ind_report.json
code=0
cfattest verify ind_report.json ind_ch.json keys/pk.hex ind.json || code=$?
test "$code" -eq 5
: > empty.jsonl
python -c "import json; d = json.load(open('ch.json')); del d['nonce_hex']; \
  json.dump(d, open('no_nonce.json', 'w'))"
python -c "import json; d = json.load(open('prog.json')); \
  d['instructions'][2]['mnemonic'] = 'bgt'; json.dump(d, open('bgt_prog.json', 'w'))"
python -c "import json; d = json.load(open('prog.json')); \
  d['instructions'][10]['target'] = '-0x10'; json.dump(d, open('outside_prog.json', 'w'))"
echo '{"kind": "corrupt-loop-counter", "payload": {"reg": 2, "value": 2}}' > no_trigger.json
echo '[0, "1", 2]' > bad_arrivals.json
echo '[1000000000000]' > late_arrival.json
timeout 20 env PYTHONPATH="$root/src" python -m cfattest.cli timing late_arrival.json --buffer 3
python -c "import json; print(json.dumps({'input': [3, 0, 1, 0], 'program_id': 'demo'})); \
  print(json.dumps({'cycle': 0, 'mnemonic': 'li', 'next_pc': '0x104', 'pc': '0x100', \
  'taken': None})); print(json.dumps({'fault': None}))" > per_cycle.jsonl
echo '{"kind": "corrupt-loop-counter", "trigger": {"pc": 4096}, "payload": {"reg": 99, "value": 2}}' \
  > reg99.json
python -c "lines = open('trace.jsonl').read().splitlines(); del lines[-2]; \
  open('short_trace.jsonl', 'w').write('\n'.join(lines) + '\n')"
printf 'main:\n li r1, 0x200\n jr r1\n halt\n' > pcf.s
cfattest asm pcf.s --id pcf -o pcf.json
cfattest run pcf.json -o pcf.jsonl
python -c "import json; lines = open('pcf.jsonl').read().splitlines(); \
  head = json.loads(lines[0]); head['cycles'] += 1; lines[0] = json.dumps(head); \
  open('pcf_cycles.jsonl', 'w').write('\n'.join(lines) + '\n')"
python -c "import json; lines = open('trace.jsonl').read().splitlines(); \
  head = json.loads(lines[0]); head['program_id'] = 'someone-else'; lines[0] = json.dumps(head); \
  open('other_trace.jsonl', 'w').write('\n'.join(lines) + '\n')"
printf 'main:\n li r1, 3\nL:\n beq r1, r0, E\n addi r1, r1, -1\n j L\nE:\n ld r2, [r0+5]\n halt\n' > dfm.s
cfattest asm dfm.s --id dfm -o dfm.json
cfattest run dfm.json -o dfm.jsonl
python -c "import json; lines = open('dfm.jsonl').read().splitlines(); \
  head = json.loads(lines[0]); head['cycles'] -= 1; lines[0] = json.dumps(head); \
  lines[-1] = json.dumps({'fault': 'data-access-out-of-range:5'}); \
  open('dfm_cut.jsonl', 'w').write('\n'.join(lines) + '\n')"
echo 5 > bad_store.json
: > empty_store.json
mkdir store_dir
for cmd in "measure empty.jsonl --program prog.json" \
           "measure per_cycle.jsonl --program prog.json" \
           "measure short_trace.jsonl --program prog.json" \
           "measure pcf_cycles.jsonl --program pcf.json" \
           "measure other_trace.jsonl --program prog.json" \
           "measure dfm_cut.jsonl --program dfm.json" \
           "measure nested.json --program prog.json" \
           "run prog.json --input 3,0,1,0 --attack reg99.json" \
           "run prog.json --input 3,0,1,0 --cycle-cap -5" \
           "verify report.json no_nonce.json keys/pk.hex prog.json" \
           "run bgt_prog.json --input 3,0,1,0" \
           "run outside_prog.json --input 3,0,1,0" \
           "run prog.json --input 3,0,1,0 --attack no_trigger.json" \
           "timing bad_arrivals.json --buffer 3" \
           "verify report.json ch.json keys/pk.hex prog.json --nonce-store bad_store.json" \
           "verify report.json ch.json keys/pk.hex prog.json --nonce-store empty_store.json" \
           "verify report.json ch.json keys/pk.hex prog.json --nonce-store nested.json" \
           "verify report.json ch.json keys/pk.hex prog.json --nonce-store store_dir"; do
  code=0
  cfattest $cmd 2> err.txt || code=$?
  cat err.txt
  test "$code" -eq 1
  grep -q '^error: ' err.txt
  if grep -q Traceback err.txt; then exit 1; fi
done
