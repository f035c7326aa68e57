"""One benchmark sample: a fresh interpreter that drives imputeaudit's public CLI.

    python3 benchmarks/child.py SPEC_JSON

SPEC_JSON holds ``root`` (the checkout), ``calls`` (argument lists for
``imputeaudit.cli.main``, run in order), ``trace`` (a span file to write, or
null) and ``prepare`` (a work directory to fill with the audit-long inputs
instead of running calls, or null). The calls are bracketed by the reference
computation, whose mean time the parent divides them by. The last line
printed is ``SAMPLE {...}`` with times on the ``time.perf_counter`` clock,
which is the system-wide monotonic clock on Linux, so the parent can
subtract its own spawn time.
"""
import json
import os
import resource
import sys
import time


def _cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def reference_work() -> float:
    """Seconds for a fixed computation shaped like the program's hot loops.

    A pure-Python dynamic-programming sweep (like DTW), small dense layers
    (like autoencoder training) and batched attention (like the attention
    imputer). It does not touch imputeaudit, so its time tracks only the speed
    of the host, which on shared machines drifts by tens of percent over
    minutes.
    """
    import numpy as np

    started = time.perf_counter()
    costs = [[abs(i - j) * 0.01 for j in range(96)] for i in range(96)]
    for _ in range(60):
        prev = [0.0] + [float("inf")] * 96
        for row in costs:
            cur = [float("inf")] * 97
            for j in range(1, 97):
                best = prev[j - 1]
                if prev[j] < best:
                    best = prev[j]
                if cur[j - 1] < best:
                    best = cur[j - 1]
                cur[j] = row[j - 1] + best
            prev = cur
    x = np.linspace(-1.0, 1.0, 16 * 64).reshape(16, 64)
    w = np.linspace(-0.1, 0.1, 64 * 64).reshape(64, 64)
    for _ in range(8000):
        x = np.tanh(x @ w + 0.5)
    # Two series at a time keeps the reference's memory below the program's.
    h = np.linspace(-1.0, 1.0, 2 * 64 * 16).reshape(2, 64, 16)
    w = np.linspace(-0.2, 0.2, 16 * 16).reshape(16, 16)
    for _ in range(320):
        q = (h @ w).reshape(2, 64, 2, 8).transpose(0, 2, 1, 3)
        logits = q @ q.transpose(0, 1, 3, 2)
        weights = np.exp(logits - logits.max(axis=-1, keepdims=True))
        weights /= weights.sum(axis=-1, keepdims=True)
        mixed = (weights @ q).transpose(0, 2, 1, 3).reshape(2, 64, 16)
        h = np.tanh(h + np.einsum("btm,mn->btn", mixed, w))
    return time.perf_counter() - started


def prepare_audit_long(workdir: str, params: dict, seed: int) -> None:
    """Corpus, split, two trained autoencoders, candidate CSV and labels."""
    from imputeaudit import core, data, models

    corpus = data.generate_synthetic(data.SyntheticConfig(
        **{k: tuple(v) if isinstance(v, list) else v for k, v in params["data"].items()},
        seed=core.derive_seed(seed, "data"),
    ))
    split = data.split_scenario1(corpus, core.derive_seed(seed, "split"))

    def fit(series, role):
        normalized = [core.zscore_normalize(s)[0] for s in series]
        cfg = models.ImputerConfig(**params["model"], seed=core.derive_seed(seed, role))
        models.save_model(models.train(normalized, cfg), os.path.join(workdir, f"{role}.json"))

    fit(split.private, "target")
    fit(split.public, "reference")
    members = list(split.private[: params["members"]])
    nonmembers = list(split.test)
    data.save_csv(members + nonmembers, os.path.join(workdir, "candidates.csv"))
    labels = {s.id: True for s in members} | {s.id: False for s in nonmembers}
    for name, doc in (("labels.json", labels), ("attack.json", params["attack"])):
        with open(os.path.join(workdir, name), "w") as fh:
            json.dump(doc, fh, sort_keys=True, indent=2)


def main() -> None:
    spec = json.loads(sys.argv[1])
    src = os.path.join(spec["root"], "src")
    sys.path.insert(0, src)
    import imputeaudit.cli

    if not os.path.abspath(imputeaudit.cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"imputeaudit imported from {imputeaudit.cli.__file__}, not from {src}")
    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    imported = time.perf_counter()
    reference = reference_work()
    ready, cpu0 = time.perf_counter(), _cpu_seconds()
    if spec["prepare"]:
        prepare_audit_long(spec["prepare"], spec["params"], spec["seed"])
        codes = []
    else:
        codes = [imputeaudit.cli.main(argv) for argv in spec["calls"]]
    end, cpu1 = time.perf_counter(), _cpu_seconds()
    reference += reference_work()
    if tracer:
        tracer.dump(spec["trace"])
    print("SAMPLE " + json.dumps({
        "imported": imported,
        "ready": ready,
        "end": end,
        "cpu_s": cpu1 - cpu0,
        "reference_s": reference / 2,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "codes": codes,
    }))


if __name__ == "__main__":
    main()
