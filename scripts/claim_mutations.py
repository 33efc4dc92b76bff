#!/usr/bin/env python3
"""claim_mutations.py [CLAIM ...]

Checks that each claim of the driver table (exp.Placement.Claims) can fail:
for every named claim (all of them by default) and each of its seeded
mutations it copies the working tree into a temporary directory, applies
the mutation there — never in the checkout — and runs the claim's
TestTieOrderRelation subtests on the copy, under both orders of
same-instant events. Every mutation must make its claim fail under both orders; the
script prints the measured values and exits non-zero if a claim still
holds under one of its mutations in either order.

Besides the mutation aimed at its mechanism, each claim that compares
runs (a delay ratio, a difference of utilisations, a Jain index) also
runs under a silent ABC sender (a window of 0, so ABC delivers nothing):
a claim must not hold on a run that delivered nothing.

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
NO_MARKING = ('internal/abc/router.go', 'if r.token > 1 {', 'if true {',
              'ABC router marking off: every accelerate is kept')
NO_AI = ('internal/abc/sender.go', 'ai := 1 / s.wabc', 'ai := 0.0',
         'ABC sender without additive increase (pure MIMD)')
NO_BRAKES = ('internal/abc/sender.go', 's.wabc += -1 + ai', 's.wabc += ai',
             'ABC sender ignores brakes')

# claim -> [(file, text, replacement, what the mutation does), ...]
MUTATIONS = {
    'fig3/ai-fairness': [NO_AI, SILENT],
    'fig4/tia-slope': [(
        'internal/wifi/wifi.go', 'float64(b*frameSize*8) / l.batchBitrate)',
        'float64(b*frameSize*8) / (2 * l.batchBitrate))',
        'Wi-Fi A-MPDU airtime at twice the PHY rate')],
    'fig5/backlogged-prediction': [(
        'internal/wifi/wifi.go', 'float64((e.M-b)*e.S*8)/bitrate', 'float64(e.M*e.S*8)/bitrate',
        "Wi-Fi estimator extrapolates by a whole A-MPDU, not the batch's missing frames")],
    'fig7/dual-queue-share': [NO_AI, NO_MARKING, SILENT],
    'fig8/min-of-marks': [(
        'internal/abc/router.go', ACCEL,
        '\tif p.ECN == packet.Brake && !p.IsAck {\n\t\tp.ECN = packet.Accel\n\t}\n' + ACCEL,
        'no min-of-marks: a router re-decides data packets an earlier hop braked'), SILENT],
    'fig9/util-delay': [NO_MARKING, SILENT],
    'fig12/weight-policy': [(
        'internal/sched/dualqueue.go', '\t\td.reweighZombie()', '\t\td.reweighMaxMin(dur, c)',
        "zombie-list policy weighs by max-min's allocation")],
    'fig13/app-limited': [(
        'internal/abc/sender.go', 's.wabc += 1 + ai', 's.wabc += -1 + ai',
        'ABC sender ignores accelerates')],
    'fig18/rtt': [NO_BRAKES, SILENT],
    'fig18/util': [(
        'internal/abc/router.go', 'tr := r.Cfg.Eta * mu', 'tr := r.Cfg.Eta * mu / 2',
        'ABC router targets half the link rate')],
    'jain/min-index': [NO_AI, SILENT],
    'ablations/tradeoffs': [(
        'internal/abc/router.go', 'x - r.Cfg.DelayThreshold', 'x - 20*sim.Millisecond',
        "ABC router's delay threshold pinned at 20 ms"), SILENT],
    'proxied/equivalent': [(
        'internal/abc/proxied.go', 'p.ECN = packet.CE', 'p.ECN = packet.Accel',
        'proxied marker leaves brakes as accelerates'), SILENT],
    'pkabc/future-knowledge': [(
        'internal/netem/netem.go', 'if l.Lookahead > 0 {', 'if false {',
        'trace link ignores Lookahead: PK-ABC sees the present rate'), SILENT],
    'stability/eq13-fixed-point': [(
        'internal/abc/router.go', 'tr -= mu * excess.Seconds()', 'tr -= 2 * mu * excess.Seconds()',
        "the delta term of Eq. 1's target rate doubled")],
    'markeduplink/reverse-min-of-marks': [(
        'internal/abc/router.go', ACCEL,
        '\tif p.ECN == packet.Accel && !p.IsAck {\n\t\tif r.token > 1 {',
        'no min-of-marks on the return path: a router leaves ACK echoes alone')],
}

ORDERS = ('scheduling order', 'reversed ties')


def main(names):
    caught = True
    for name, (path, old, new, what) in [(n, m) for n in names or MUTATIONS for m in MUTATIONS[n]]:
        with tempfile.TemporaryDirectory() as tmp:
            tree = os.path.join(tmp, 'tree')
            shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns('.git', '.bench_build', '.fuzzcache', '*.test'))
            src = os.path.join(tree, path)
            with open(src) as f:
                text = f.read()
            if old not in text:
                sys.exit(f'{name}: mutation site not found in {path}')
            with open(src, 'w') as f:
                f.write(text.replace(old, new, 1))
            r = subprocess.run(['go', 'test', '-count=1', '-run', f'TestTieOrderRelation/.*/{name}$', '-v', './internal/exp/'],
                               cwd=tree, capture_output=True, text=True)
        # A copy that does not build fails too, but not as the claim.
        lines = r.stdout.splitlines()
        held = [o for o in ORDERS if not any(f', {o}: ' in l and 'outside' in l for l in lines)]
        if not held:
            verdict = 'fails in both orders, as it must'
        elif r.returncode and len(held) == len(ORDERS):
            verdict = 'DID NOT RUN'
        else:
            verdict = 'STILL HOLDS with ' + ' and '.join(held)
        caught = caught and not held
        print(f'{name} under "{what}": {verdict}')
        for line in lines:
            if 'seed 1, ' in line and 'measured' in line and 'outside' not in line:
                print('   ', line.strip().split(': ', 1)[1])
    return 0 if caught else 1


if __name__ == '__main__':
    sys.exit(main(sys.argv[1:]))
