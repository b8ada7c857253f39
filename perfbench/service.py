"""The service-warm workload: a `repro serve` process and its client.

Only the standard library is used here, so the client measures the
server from outside, over HTTP, the way a user's client would.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import subprocess
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

#: Jobs the timed phase completes at least, so that at least ten latency
#: samples lie beyond p95.
MIN_TIMED_JOBS = 240

#: The timed phase never runs longer than this, whatever ``--seconds`` says.
MAX_TIMED_SECONDS = 60.0

_START_TIMEOUT = 60.0
_REQUEST_TIMEOUT = 120.0


class ServiceError(RuntimeError):
    """The server misbehaved in a way that makes the run meaningless."""


def _request(port: int, method: str, path: str, body: Optional[Dict] = None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=_REQUEST_TIMEOUT)
    try:
        data = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json"} if data is not None else {}
        conn.request(method, path, body=data, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def submit(port: int, payload: Dict[str, Any]) -> str:
    status, body = _request(port, "POST", "/jobs", payload)
    if status != 202:
        raise ServiceError(f"POST /jobs returned {status}: {body[:200]!r}")
    return json.loads(body)["id"]


def stream(port: int, job_id: str) -> List[Dict[str, Any]]:
    """Every event of a job, read until the server ends the stream."""
    status, body = _request(port, "GET", f"/jobs/{job_id}/stream")
    if status != 200:
        raise ServiceError(f"stream of {job_id} returned {status}")
    return [json.loads(line) for line in body.splitlines() if line.strip()]


def get_json(port: int, path: str) -> Dict[str, Any]:
    status, body = _request(port, "GET", path)
    if status != 200:
        raise ServiceError(f"GET {path} returned {status}")
    return json.loads(body)


class Server:
    """One `repro serve` process on an ephemeral port, started by worker.py."""

    def __init__(self, worker: List[str], env: Dict[str, str], cache: Path,
                 trace: Optional[Path]) -> None:
        params = {"cache": str(cache), "trace": str(trace) if trace else None}
        self.process = subprocess.Popen(
            worker + ["serve", json.dumps(params)],
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )
        self.port = self._read_port()

    def _read_port(self) -> int:
        deadline = time.monotonic() + _START_TIMEOUT
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.process.stdout], [], [], 1.0)
            if not ready:
                continue
            line = self.process.stdout.readline()
            if not line:
                break
            if line.startswith("serving on http://"):
                return int(line.split()[2].rsplit(":", 1)[1])
        self.process.kill()
        self.process.wait()
        self.process.stdout.close()
        raise ServiceError("the job server did not start")

    def cpu_seconds(self) -> float:
        fields = Path(f"/proc/{self.process.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.process.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise ServiceError("no VmHWM for the server process")

    def stop(self) -> None:
        """Ask for a drained shutdown; kill if the process does not end."""
        if self.process.poll() is None:
            try:
                _request(self.port, "POST", "/shutdown", {"drain": True})
            except (OSError, http.client.HTTPException):
                pass
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


def warm(server: Server, payloads: List[Dict[str, Any]]) -> None:
    """Submit the cold jobs together and stream each one to ``done``."""
    ids = [submit(server.port, payload) for payload in payloads]
    for job_id in ids:
        done = stream(server.port, job_id)[-1]
        if done.get("state") != "done" or done["summary"]["failed"]:
            raise ServiceError(f"warm-up job {job_id} ended as {done.get('state')}")


def closed_loop(port: int, pool: List[Dict[str, Any]], clients: int,
                seconds: float, recorder=None) -> Tuple[List[Dict[str, Any]], float, float]:
    """Each client submits a job, streams it to ``done``, then takes the next.

    Jobs are taken from ``pool`` in order, cyclically.  Returns the job
    records and the phase's start and end on the ``time.monotonic`` clock.
    """
    lock = threading.Lock()
    records: List[Dict[str, Any]] = []
    cursor = [0]
    errors: List[BaseException] = []
    begin = time.monotonic()

    def call(name, func, *args):
        if recorder is None:
            return func(*args)
        return recorder.call(name, func, args, {})

    def client() -> None:
        try:
            while True:
                with lock:
                    elapsed = time.monotonic() - begin
                    if elapsed >= MAX_TIMED_SECONDS or (
                        elapsed >= seconds and cursor[0] >= MIN_TIMED_JOBS
                    ):
                        return
                    index = cursor[0] % len(pool)
                    cursor[0] += 1
                start = time.monotonic()
                job_id = call("service.submit", submit, port, pool[index])
                submitted = time.monotonic()
                events = call("service.stream", stream, port, job_id)
                end = time.monotonic()
                with lock:
                    records.append({
                        "index": index, "id": job_id, "start": start,
                        "submitted": submitted, "end": end, "events": events,
                    })
        except BaseException as exc:  # reported by the caller
            errors.append(exc)

    threads = [threading.Thread(target=client) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    end = time.monotonic()
    if errors:
        raise ServiceError(f"client failed: {errors[0]!r}")
    return records, begin, end


def job_problem(record: Dict[str, Any], expected_front) -> Optional[str]:
    """Why a timed job did not do what it should, or ``None``."""
    events = record["events"]
    if not events or events[-1].get("type") != "done":
        return "stream ended without a done event"
    done = events[-1]
    if done.get("state") != "done":
        return f"job ended as {done.get('state')}: {done.get('error')}"
    outcomes = [e for e in events if e.get("type") == "outcome"]
    summary = done["summary"]
    if summary["failed"] or summary["cancelled"] or len(outcomes) != summary["num_tasks"]:
        return f"job summary {summary}"
    if not all(e["ok"] and e["cached"] for e in outcomes):
        return "a configuration of a warm job was not served from the cache"
    if done["pareto"] != expected_front:
        return "streamed Pareto front differs from the in-process engine's front"
    return None
