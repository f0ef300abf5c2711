"""Write the reference reports the benchmark checks every analysis against.

    python3 perfbench/make_reference.py [--deadline 120] [set ...]

For each algebra set (``corpus``, ``ut-scale``, ``semidirect``) this
analyzes every algebra once, cold, under the same per-algebra deadline as
the benchmark, and stores the ``analyze`` JSON of each algebra that finished
in ``perfbench/reference/<set>.json``.
Algebras the deadline stopped are listed under ``"stopped"`` instead; the
benchmark keeps them out of its timed set and runs them as traced probes.
Run it only on a commit whose output is trusted: the references are the
definition of a correct report.
"""

from __future__ import annotations

import argparse
import json
import subprocess

import harness


def commit_of_checkout() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=harness.ROOT,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--deadline", type=float, default=120.0)
    parser.add_argument("sets", nargs="*", default=["corpus", "ut-scale", "semidirect"])
    args = parser.parse_args(argv)
    mods = harness.load_lierad()
    caches = harness.Caches(mods)
    reports = mods["reports"]
    for part in args.sets:
        finished, stopped = {}, []
        for name, algebra in harness.build_set(mods, part):
            caches.clear()
            try:
                with harness.deadline(args.deadline):
                    text = reports.report_to_json(reports.analyze(algebra, name=name))
            except harness.DeadlineExceeded:
                stopped.append(name)
                print("%s: %s stopped at %gs" % (part, name, args.deadline),
                      flush=True)
                continue
            report = json.loads(text)
            errors = harness.error_paths(report)
            if errors:
                raise SystemExit("%s: %s has error fields %s" % (part, name, errors))
            finished[name] = report
            print("%s: %s done" % (part, name), flush=True)
        caches.clear()
        record = {
            "set": part,
            "commit": commit_of_checkout(),
            "deadline_s": args.deadline,
            "stopped": stopped,
            "reports": finished,
        }
        path = harness.REFERENCE_DIR / ("%s.json" % part)
        path.parent.mkdir(exist_ok=True)
        with open(path, "w") as fh:
            json.dump(record, fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
