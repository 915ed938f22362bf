"""Per-layer timers and counters wrapped around qirvm from the outside.

`run_program` looks up `shot_rng`, `create_backend`, `ShotRecorder`,
`execute_shot` and `aggregate` as globals of `qirvm.interpreter`, and the
statevector backend looks up `gate_matrix` as a global of
`qirvm.backends`.  `Tracer.install` replaces those names with timed
wrappers and counts calls to the frozen registry's `resolve`; nothing in
`src/` changes.  Spans are summed in memory and written once per process.
"""

from collections import defaultdict
from time import perf_counter

import qirvm.backends
import qirvm.interpreter


class Tracer:
    def __init__(self):
        self.seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.peak_state_bytes = 0

    def timed(self, name, fn):
        seconds, calls = self.seconds, self.calls

        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[name] += perf_counter() - start
                calls[name] += 1

        return wrapper

    def install(self, registry):
        interp = qirvm.interpreter
        interp.shot_rng = self.timed("shot_rng", interp.shot_rng)
        interp.execute_shot = self.timed("execute_shot", interp.execute_shot)
        interp.aggregate = self.timed("aggregate", interp.aggregate)
        interp.ShotRecorder = self._recorder_factory(interp.ShotRecorder)
        interp.create_backend = self._backend_factory(interp.create_backend)
        qirvm.backends.gate_matrix = self.timed("gate_matrix", qirvm.backends.gate_matrix)
        registry.resolve = self.timed("resolve", registry.resolve)

    def _recorder_factory(self, recorder_cls):
        tracer = self

        class TimedRecorder(recorder_cls):
            record_array = tracer.timed("record", recorder_cls.record_array)
            record_result = tracer.timed("record", recorder_cls.record_result)
            finalize = tracer.timed("finalize", recorder_cls.finalize)

        return self.timed("new_recorder", TimedRecorder)

    def _backend_factory(self, create_backend):
        tracer = self

        def timed_method(name):
            seconds, calls = tracer.seconds, tracer.calls

            def method(self, *args, **kwargs):
                start = perf_counter()
                try:
                    return getattr(self.inner, name)(*args, **kwargs)
                finally:
                    seconds[name] += perf_counter() - start
                    calls[name] += 1

            return method

        class TimedBackend:
            apply_gate = timed_method("apply_gate")
            measure = timed_method("measure")
            reset = timed_method("reset")
            _allocate = timed_method("allocate")

            def __init__(self, inner):
                self.inner = inner

            def allocate(self, *args, **kwargs):
                self._allocate(*args, **kwargs)
                amplitudes = getattr(self.inner, "amplitudes", None)
                if amplitudes is not None:
                    tracer.peak_state_bytes = max(tracer.peak_state_bytes, amplitudes.nbytes)

        # The proxy is built inside the create_backend span, so its cost is
        # not counted as the interpreter's own time.
        return self.timed("create_backend",
                          lambda *args, **kwargs: TimedBackend(create_backend(*args, **kwargs)))

    def layers(self, run_s):
        """Per-layer metrics of one traced `run_program` that took `run_s`."""
        s, n = self.seconds, self.calls
        backend_s = s["apply_gate"] + s["measure"] + s["reset"]
        shot_self = s["execute_shot"] - backend_s - s["record"] - s["finalize"]
        allocate = s["create_backend"] + s["allocate"]
        run_self = run_s - (s["execute_shot"] + s["shot_rng"] + allocate
                            + s["new_recorder"] + s["aggregate"])
        return {
            "registry.resolve_calls": n["resolve"],
            "interpreter.shot_rng_s": s["shot_rng"],
            "interpreter.shot_rng_calls": n["shot_rng"],
            "interpreter.shot_self_s": shot_self,
            "interpreter.run_self_s": run_self,
            "backends.apply_gate_s": s["apply_gate"],
            "backends.apply_gate_calls": n["apply_gate"],
            "backends.measure_s": s["measure"],
            "backends.measure_calls": n["measure"],
            "backends.reset_s": s["reset"],
            "backends.reset_calls": n["reset"],
            "backends.allocate_s": allocate,
            "backends.peak_state_bytes": self.peak_state_bytes,
            "gates.gate_matrix_calls": n["gate_matrix"],
            "gates.matrix_miss_ratio": n["gate_matrix"] / max(n["apply_gate"], 1),
            "recorder.finalize_s": s["finalize"],
            "recorder.aggregate_s": s["aggregate"],
        }
