#!/usr/bin/env python3
"""claim_mutations.py [CLAIM ...]

Checks that each headline claim of the driver table (exp.Driver.Claims)
can fail: for every named claim (all of them by default) and each of
its seeded mutations it copies the working tree into a temporary
directory, applies the mutation there — never in the checkout — and
runs the claim's TestPaperClaims subtest on the copy. Every mutation
must make its claim fail; the script prints the measured values and
exits non-zero if any claim still passes under one of its mutations.

Besides the mutation aimed at its mechanism, each claim that reads a
delay ratio also runs under a silent ABC sender (a window of 0, so ABC
delivers nothing): a claim must not hold on a run that delivered
nothing.

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

CWND = 'func (s *Sender) CwndPkts() float64 {\n'
SILENT = ('internal/abc/sender.go', CWND, CWND + '\treturn 0\n',
          'silent ABC sender: a window of 0, nothing delivered')

# claim -> [(file, text, replacement, what the mutation does), ...]
MUTATIONS = {
    'fig9/util-delay': [(
        'internal/abc/router.go', 'if r.token > 1 {', 'if true {',
        'ABC router marking off: every accelerate is kept'), SILENT],
    'fig8/min-of-marks': [(
        'internal/abc/router.go', ACCEL,
        '\tif p.ECN == packet.Brake && !p.IsAck {\n\t\tp.ECN = packet.Accel\n\t}\n' + ACCEL,
        'no min-of-marks: a router re-decides data packets an earlier hop braked'), SILENT],
    'markeduplink/reverse-min-of-marks': [(
        'internal/abc/router.go', ACCEL,
        '\tif p.ECN == packet.Accel && !p.IsAck {\n\t\tif r.token > 1 {',
        'no min-of-marks on the return path: a router leaves ACK echoes alone')],
    'stability/eq13-fixed-point': [(
        'internal/abc/router.go', 'tr -= mu * excess.Seconds()', 'tr -= 2 * mu * excess.Seconds()',
        "the delta term of Eq. 1's target rate doubled")],
    'fig18/rtt': [(
        'internal/abc/sender.go', 's.wabc += -1 + ai', 's.wabc += ai',
        'ABC sender ignores brakes'), SILENT],
    'fig12/weight-policy': [(
        'internal/sched/dualqueue.go', '\t\td.reweighZombie()', '\t\td.reweighMaxMin(dur, c)',
        "zombie-list policy weighs by max-min's allocation")],
    'fig4/tia-slope': [(
        'internal/wifi/wifi.go', 'float64(b*frameSize*8) / l.batchBitrate)',
        'float64(b*frameSize*8) / (2 * l.batchBitrate))',
        'Wi-Fi A-MPDU airtime at twice the PHY rate')],
}


def main(names):
    caught = True
    for name, (path, old, new, what) in [(n, m) for n in names or MUTATIONS for m in MUTATIONS[n]]:
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
        # A copy that does not build fails too, but not as the claim.
        failed = r.returncode != 0 and 'outside' in r.stdout
        verdict = 'fails, as it must' if failed else 'DID NOT RUN' if r.returncode else 'STILL HOLDS'
        caught = caught and failed
        print(f'{name} under "{what}": {verdict}')
        for line in r.stdout.splitlines():
            if 'measured' in line and 'outside' not in line:
                print('   ', line.strip())
    return 0 if caught else 1


if __name__ == '__main__':
    sys.exit(main(sys.argv[1:]))
