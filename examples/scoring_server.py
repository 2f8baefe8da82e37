#!/usr/bin/env python
"""Serve fitted models over HTTP: fit → save → serve → query.

The full production workflow of the serving subsystem, in-process:

1. fit a Ranking Principal Curve on the bundled country data and
   persist it with :func:`repro.serving.save_model`; fit an
   elastic-map principal curve on the same data and persist it as a
   manifest directory — two model *families* behind one API;
2. load both into a :class:`repro.server.ModelRegistry` and boot the
   stdlib HTTP daemon (:class:`repro.server.ScoringHTTPServer`) on an
   ephemeral port — the same server that ``python -m repro serve``
   runs in the foreground;
3. query every endpoint with nothing but :mod:`urllib`: health, the
   registry listing (now reporting each entry's family), single-row
   and batch scoring against either family, a ranking, and the
   request metrics;
4. overwrite a model file and watch hot reload pick it up — no
   restart.

Run:  python examples/scoring_server.py
"""

from __future__ import annotations

import json
import pathlib
import tempfile
import threading
import urllib.request
import warnings

from repro import RankingPrincipalCurve
from repro.data import COUNTRY_ATTRIBUTES, load_countries
from repro.families import build_model
from repro.server import ModelRegistry, ScoringHTTPServer
from repro.serving import save_model


def call(url: str, payload: dict | None = None) -> dict:
    """One-line JSON client: GET, or POST when a payload is given."""
    request = urllib.request.Request(
        url,
        data=None if payload is None else json.dumps(payload).encode(),
        method="GET" if payload is None else "POST",
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return json.loads(response.read())


def main() -> None:
    workdir = pathlib.Path(tempfile.mkdtemp(prefix="repro-serve-"))
    model_path = workdir / "wellbeing.json"

    # 1. Fit once, persist.
    data = load_countries()
    model = RankingPrincipalCurve(alpha=data.alpha, random_state=0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model.fit(data.X)
    save_model(model, model_path, feature_names=COUNTRY_ATTRIBUTES)
    print(f"saved fitted model to {model_path}")

    # A second family on the same data: the elastic-map principal
    # curve, persisted as a manifest directory (the layout for models
    # with sharded array state — see docs/models.md).
    elmap = build_model("elastic-map", alpha=data.alpha)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        elmap.fit(data.X)
    elmap_path = save_model(
        elmap, workdir / "elmap", feature_names=COUNTRY_ATTRIBUTES
    )
    print(f"saved elastic-map manifest to {elmap_path}")

    # 2. Boot the daemon on an ephemeral port.  Equivalent shell:
    #    python -m repro serve --model wellbeing=wellbeing.json \
    #                          --model elmap=elmap
    registry = ModelRegistry()
    registry.register("wellbeing", model_path)
    registry.register("elmap", elmap_path)
    server = ScoringHTTPServer(("127.0.0.1", 0), registry)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    base = f"http://{host}:{port}"
    print(f"daemon listening on {base}\n")

    # 3. Query it like any other HTTP service.
    print("GET /healthz        ->", call(f"{base}/healthz"))
    for listing in call(f"{base}/v1/models")["models"]:
        print("GET /v1/models      ->", {k: listing[k] for k in
                                         ("name", "family", "format",
                                          "n_attributes")})

    row = data.X[0].tolist()
    single = call(f"{base}/v1/models/wellbeing/score", {"row": row})
    print(f"POST score (1 row)  -> score={single['score']:.4f} "
          f"({data.labels[0]})")

    batch = call(
        f"{base}/v1/models/wellbeing/score",
        {"rows": data.X[:50].tolist()},
    )
    print(f"POST score (batch)  -> {batch['n']} scores, "
          f"first={batch['scores'][0]:.4f}")

    # Same endpoint shape, different family — only the model name in
    # the URL changes.
    elmap_batch = call(
        f"{base}/v1/models/elmap/score",
        {"rows": data.X[:50].tolist()},
    )
    print(f"POST score (elmap)  -> {elmap_batch['n']} scores, "
          f"first={elmap_batch['scores'][0]:.4f}")

    ranked = call(
        f"{base}/v1/models/wellbeing/rank",
        {"rows": data.X[:8].tolist(), "labels": data.labels[:8]},
    )
    print("POST rank (top 3)   ->")
    for entry in ranked["ranking"][:3]:
        print(f"    {entry['position']}. {entry['label']}"
              f"  ({entry['score']:.4f})")

    # 4. Hot reload: overwrite the file, the next request serves the
    #    new fit.  (Refitting without the first ten countries gives a
    #    slightly different curve.)
    refit = RankingPrincipalCurve(alpha=data.alpha)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        refit.fit(data.X[10:])
    save_model(refit, model_path, feature_names=COUNTRY_ATTRIBUTES)
    reloaded = call(f"{base}/v1/models/wellbeing/score", {"row": row})
    print(f"\nafter overwrite     -> score={reloaded['score']:.4f} "
          "(hot-reloaded, no restart)")

    metrics = call(f"{base}/metrics")
    score_stats = metrics["endpoints"]["POST /v1/models/{name}/score"]
    print(f"GET /metrics        -> {metrics['requests_total']} requests, "
          f"{metrics['rows_scored_total']} rows scored, "
          f"score p50={score_stats['latency_ms']['p50']}ms")

    server.shutdown()
    server.server_close()
    print("\ndaemon stopped cleanly")


if __name__ == "__main__":
    main()
