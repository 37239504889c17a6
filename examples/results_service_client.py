#!/usr/bin/env python3
"""Results-service tour: a plain-HTTP client against ``repro-frontend serve``.

Everything client-side here is stdlib ``urllib`` against the service's
JSON wire format -- point ``SERVICE_URL`` at a deployed
``repro-frontend serve --queue-dir /shared/queue`` and the client half
works unchanged.  To stay self-contained, the script also hosts the
service in-process (``background_server``) with a worker thread
draining the queue, so the cold miss -> 202 -> poll -> 200 round trip
runs end to end on one machine.

Run with::

    PYTHONPATH=src python examples/results_service_client.py
"""

import json
import os
import tempfile
import threading
import time
import urllib.request

from repro.api.runtime_config import RuntimeConfig, activated
from repro.exec.queue import serve_queue
from repro.serve import background_server

INSTRUCTIONS = 20_000


def get(url: str) -> tuple[int, bytes]:
    """One GET; 2xx only (urllib raises on 4xx/5xx)."""
    with urllib.request.urlopen(url, timeout=60) as response:
        return response.status, response.read()


def main() -> None:
    with tempfile.TemporaryDirectory() as scratch:
        queue_dir = os.path.join(scratch, "queue")
        os.makedirs(queue_dir)
        config = RuntimeConfig.from_environment(
            instructions=INSTRUCTIONS,
            result_cache_dir=os.path.join(scratch, "store"),
            queue_dir=queue_dir,
            serve_port=0,
        )

        def drain() -> None:
            # The worker runs under the service's config, so what it
            # computes lands in the store the service reads.
            with activated(config):
                serve_queue(queue_dir, max_idle=3.0)

        # Service + one worker.  In production these are separate
        # processes: `repro-frontend serve` and `repro-frontend worker`
        # sharing --queue-dir; the wire traffic below is identical.
        worker = threading.Thread(target=drain)
        worker.start()
        with background_server(config) as server:
            print(f"service listening on {server.url}")

            # Cold request: the store is empty, so the service enqueues
            # the experiment and hands back a polling URL.
            status, body = get(server.url + "/experiment/fig5")
            print(f"\nGET /experiment/fig5 -> {status}")
            if status == 202:
                job = json.loads(body)
                print(f"  enqueued as job {job['job']}, polling {job['poll']}")
                while True:
                    status, body = get(server.url + job["poll"])
                    if status == 200:
                        break
                    time.sleep(0.5)
            payload = json.loads(body)
            print(f"  done: {len(payload['rows'])} rows, key {payload['key'][:16]}...")

            # Warm requests now come straight from the store, with
            # slicing on the wire: pick a frame, filter, project.
            status, body = get(
                server.url
                + "/experiment/fig5?frame=workloads&workload=FT"
                + "&columns=workload,tage-big,tournament-big"
            )
            sliced = json.loads(body)
            print(f"\nFT slice ({status}): {sliced['columns']} -> {sliced['rows']}")

            # Same artifact as CSV, for spreadsheets and shell pipelines.
            status, body = get(server.url + "/experiment/fig5?format=csv")
            print(f"\nCSV head: {body.decode().splitlines()[0]}")

            # The service keeps per-route counters and cache stats.
            _, body = get(server.url + "/stats")
            route = json.loads(body)["serve"]["routes"]["experiment"]
            print(
                f"\n/experiment route: {route['requests']} requests, "
                f"{route['hits']} hits, {route['misses']} misses, "
                f"p50 {route.get('p50_ms', 0.0):.2f} ms"
            )
        worker.join()


if __name__ == "__main__":
    main()
