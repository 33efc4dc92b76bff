#!/usr/bin/env python3
"""claim_mutations.py [CLAIM ...]

Checks that each headline claim of the driver table (exp.Driver.Claims)
can fail: for every named claim (all of them by default) it copies the
working tree into a temporary directory, applies that claim's seeded
mutation there — never in the checkout — and runs the claim's
TestPaperClaims subtest on the copy. Each mutation must make its claim
fail; the script prints the measured values and exits non-zero if any
claim still passes under its mutation.

    python3 scripts/claim_mutations.py
    python3 scripts/claim_mutations.py fig9/util-delay
"""
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

ACCEL = '\tif p.ECN == packet.Accel {\n\t\tif r.token > 1 {'

# claim -> (file, text, replacement, what the mutation does)
MUTATIONS = {
    'fig9/util-delay': (
        'internal/abc/router.go', 'if r.token > 1 {', 'if true {',
        'ABC router marking off: every accelerate is kept'),
    'fig8/min-of-marks': (
        'internal/abc/router.go', ACCEL,
        '\tif p.ECN == packet.Brake && !p.IsAck {\n\t\tp.ECN = packet.Accel\n\t}\n' + ACCEL,
        'no min-of-marks: a router re-decides data packets an earlier hop braked'),
    'markeduplink/reverse-min-of-marks': (
        'internal/abc/router.go', ACCEL,
        '\tif p.ECN == packet.Accel && !p.IsAck {\n\t\tif r.token > 1 {',
        'no min-of-marks on the return path: a router leaves ACK echoes alone'),
    'stability/eq13-fixed-point': (
        'internal/abc/router.go', 'tr -= mu * excess.Seconds()', 'tr -= 2 * mu * excess.Seconds()',
        "the delta term of Eq. 1's target rate doubled"),
    'fig18/rtt': (
        'internal/abc/sender.go', 's.wabc += -1 + ai', 's.wabc += ai',
        'ABC sender ignores brakes'),
    'fig12/weight-policy': (
        'internal/sched/dualqueue.go', '\t\td.reweighZombie()', '\t\td.reweighMaxMin(dur, c)',
        "zombie-list policy weighs by max-min's allocation"),
    'fig4/tia-slope': (
        'internal/wifi/wifi.go', 'float64(b*frameSize*8) / l.batchBitrate)',
        'float64(b*frameSize*8) / (2 * l.batchBitrate))',
        'Wi-Fi A-MPDU airtime at twice the PHY rate'),
}


def main(names):
    caught = True
    for name in names or MUTATIONS:
        path, old, new, what = MUTATIONS[name]
        with tempfile.TemporaryDirectory() as tmp:
            tree = os.path.join(tmp, 'tree')
            shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns('.git', '.bench_build', '.fuzzcache'))
            src = os.path.join(tree, path)
            with open(src) as f:
                text = f.read()
            if old not in text:
                sys.exit(f'{name}: mutation site not found in {path}')
            with open(src, 'w') as f:
                f.write(text.replace(old, new, 1))
            r = subprocess.run(['go', 'test', '-count=1', '-run', f'TestPaperClaims/{name}$', '-v', './internal/exp/'],
                               cwd=tree, capture_output=True, text=True)
        verdict = 'fails, as it must' if r.returncode else 'STILL HOLDS'
        caught = caught and r.returncode != 0
        print(f'{name} under "{what}": {verdict}')
        for line in r.stdout.splitlines():
            if 'measured' in line and 'outside' not in line:
                print('   ', line.strip())
    return 0 if caught else 1


if __name__ == '__main__':
    sys.exit(main(sys.argv[1:]))
