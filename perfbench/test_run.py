#!/usr/bin/env python3
"""Self-tests for the benchmark's own math and output schema.

    python3 perfbench/test_run.py
"""

import importlib.util
import json
import math
import os
import unittest
from unittest import mock

HERE = os.path.dirname(os.path.abspath(__file__))
_spec = importlib.util.spec_from_file_location(
    "perfbench_run", os.path.join(HERE, "run.py"))
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)
SPEC = run.load_spec()
REF = run.REF_CALIB_S


def op(wall, ok=True, warmup=False, traced=False, work=100.0, layer=None,
       inp=0, model_s=1.0, events=10, calib=REF):
    rec = {"tid": 0, "input": inp, "warmup": warmup, "traced": traced,
           "ok": ok, "wall_s": wall, "cpu_s": wall * 2, "calib_s": calib,
           "work": work, "model_s": model_s, "events": events}
    if not ok:
        rec["why"] = "phase not completed"
    if layer is not None:
        rec["layer"] = layer
    return rec


def records(ops, **extra):
    r = {"workload": "bh-sim-dpa", "backend": "sim", "seed": 1, "nproc": 4,
         "cpu_model": "test", "steal_frac": 0.0, "cells": 1, "inputs": 1,
         "window_s": 10.0, "peak_rss_mb": 50.0, "setup_s": [0.3, 0.1, 0.2],
         "setup_calib_s": [REF, REF, REF], "build_s": [0.03, 0.01, 0.02],
         "ops": ops, "histograms": {}}
    r.update(extra)
    return r


class TailPercentile(unittest.TestCase):
    def test_keeps_ten_samples_beyond_and_is_the_highest_such(self):
        for n in range(20, 2001):
            xs = list(range(n))
            pct, value = run.tail_percentile(xs)
            beyond = sum(1 for x in xs if x > value)
            self.assertGreaterEqual(beyond, 10, n)
            # One percentile higher would leave fewer than ten beyond.
            if pct < 99:
                rank = math.ceil((pct + 1) * n / 100)
                self.assertLess(n - rank, 10, n)

    def test_known_points(self):
        self.assertEqual(run.tail_percentile(range(100)), (90, 89))
        self.assertEqual(run.tail_percentile(range(40)), (75, 29))
        self.assertEqual(run.tail_percentile(range(1000)), (99, 989))
        self.assertEqual(run.tail_percentile(range(39))[0], 74)

    def test_order_does_not_matter(self):
        xs = [float(i) for i in range(50)]
        self.assertEqual(run.tail_percentile(xs),
                         run.tail_percentile(list(reversed(xs))))

    def test_too_few_samples_fall_back_to_the_median(self):
        self.assertEqual(run.tail_percentile([3.0, 1.0, 2.0]), (50, 2.0))
        self.assertEqual(run.tail_percentile(range(19)), (50, 9))


class Ratios(unittest.TestCase):
    def layer_ops(self):
        a = {"rt.refs_requested": 300.0, "rt.request_msgs": 100.0,
             "rt.cache_hits": 90.0, "rt.cache_misses": 10.0,
             "rt.threads_run": 50.0, "rt.tiles_run": 10.0,
             "transport.wire_payloads_recv": 30.0,
             "transport.wire_frames_recv": 20.0,
             "transport.wire_frames_sent": 25.0,
             "fm.bytes_sent": 1000.0, "fm.msgs_sent": 10.0}
        b = {"rt.refs_requested": 100.0, "rt.request_msgs": 100.0,
             "rt.cache_hits": 10.0, "rt.cache_misses": 90.0,
             "rt.threads_run": 10.0, "rt.tiles_run": 10.0,
             "transport.wire_payloads_recv": 10.0,
             "transport.wire_frames_recv": 20.0,
             "transport.wire_frames_sent": 25.0,
             "fm.bytes_sent": 3000.0, "fm.msgs_sent": 10.0}
        return [op(1.0, traced=True, layer=a), op(1.0, traced=True, layer=b),
                op(1.0)]

    def test_ratio_bases(self):
        m = run.per_layer_metrics(records(self.layer_ops(), backend="proc"),
                                  self.layer_ops())
        # (300 + 100) refs over (100 + 100) request messages.
        self.assertAlmostEqual(m["runtime.agg_refs_per_msg"], 2.0)
        # (90 + 10) hits over (90 + 10) + (10 + 90) lookups.
        self.assertAlmostEqual(m["runtime.cache_hit_frac"], 0.5)
        # Payloads over frames received, not frames sent.
        self.assertAlmostEqual(m["transport.payloads_per_frame"], 1.0)
        self.assertAlmostEqual(m["runtime.threads_per_tile"], 3.0)
        self.assertAlmostEqual(m["fm.bytes_per_msg"], 200.0)
        # 4000 bytes over 200 units of work (traced operations only).
        self.assertAlmostEqual(m["fm.bytes_per_work"], 20.0)
        # Counters are per traced operation.
        self.assertAlmostEqual(m["runtime.refs_requested"], 200.0)

    def test_zero_base_reads_zero(self):
        self.assertEqual(run.ratio(5.0, 0), 0.0)
        m = run.per_layer_metrics(records([], backend="native"),
                                  [op(1.0, traced=True, layer={})])
        self.assertEqual(m["runtime.cache_hit_frac"], 0.0)
        self.assertEqual(m["transport.payloads_per_frame"], 0.0)

    def test_inputs_weigh_equally_whatever_the_traced_mix(self):
        ops = [op(1.0, traced=True, inp=0, layer={"sim.events": 10.0}),
               op(1.0, traced=True, inp=0, layer={"sim.events": 10.0}),
               op(1.0, traced=True, inp=0, layer={"sim.events": 10.0}),
               op(1.0, traced=True, inp=1, layer={"sim.events": 30.0})]
        for mix in (ops, ops[2:]):
            m = run.per_layer_metrics(records(mix), mix)
            self.assertAlmostEqual(m["sim.events"], 20.0)

    def test_repeating_counts_repeat_bit_for_bit(self):
        # However many traced operations each input got, and in whatever
        # order, values that repeat exactly per input give the same bits.
        x = [0.1, 0.7, 0.2]
        a = [op(1.0, traced=True, inp=i, layer={"sim.events": x[i]})
             for i in (2, 0, 0, 1, 0, 2, 1)]
        b = [op(1.0, traced=True, inp=i, layer={"sim.events": x[i]})
             for i in (0, 1, 2, 1)]
        self.assertEqual(run.per_layer_metrics(records(a), a)["sim.events"],
                         run.per_layer_metrics(records(b), b)["sim.events"])

    def test_model_time_only_on_the_simulator(self):
        ops = [op(1.0, inp=0, model_s=2.0, traced=True, layer={}),
               op(1.0, inp=1, model_s=4.0, traced=True, layer={}),
               op(1.0, inp=0, model_s=2.0, traced=True, layer={})]
        self.assertAlmostEqual(
            run.per_layer_metrics(records(ops), ops)["sim.model_s"], 3.0)
        self.assertEqual(
            run.per_layer_metrics(records(ops, backend="native"),
                                  ops)["sim.model_s"], 0.0)

    def test_overhead_leaves_out_kernel_and_placement_only(self):
        # run_sequential() already builds the tree, so apps.tree_s must not
        # be subtracted on top of apps.seq_s; cost zones and
        # materialization (apps.place_s) are the part outside it.
        layer = {"apps.seq_s": 0.5, "apps.tree_s": 0.2, "apps.place_s": 0.1}
        ops = [op(2.0, traced=True, layer=layer), op(1.0), op(1.0)]
        m = run.per_layer_metrics(records(ops), ops)
        self.assertAlmostEqual(m["runtime.overhead_s"], 1.0 - 0.5 - 0.1)


class ReferenceSeconds(unittest.TestCase):
    def test_a_host_slower_by_k_reads_the_same(self):
        fast = [op(1.0, calib=REF), op(2.0, calib=REF), op(3.0, calib=REF)]
        slow = [op(1.3, calib=1.3 * REF), op(2.6, calib=1.3 * REF),
                op(3.9, calib=1.3 * REF)]
        a = run.end_to_end_metrics(records(fast), fast)
        b = run.end_to_end_metrics(
            records(slow, setup_calib_s=[1.3 * REF] * 3,
                    setup_s=[0.39, 0.13, 0.26]), slow)
        for name in ("work_per_s", "solve_s", "solve_s.tail", "cpu_s",
                     "setup_s"):
            self.assertAlmostEqual(a[name], b[name], msg=name)
        self.assertAlmostEqual(a["solve_s"], 2.0)

    def test_each_operation_takes_its_own_calibration(self):
        ops = [op(1.0, calib=REF), op(2.0, calib=2 * REF),
               op(4.0, calib=4 * REF)]
        m = run.end_to_end_metrics(records(ops), ops)
        self.assertAlmostEqual(m["solve_s"], 1.0)
        self.assertAlmostEqual(m["cpu_s"], 2.0)

    def test_work_rate_is_the_median_operation_rate(self):
        ops = [op(1.0, work=100.0), op(1.0, work=100.0), op(1.0, work=100.0),
               op(10.0, work=100.0)]
        m = run.end_to_end_metrics(records(ops), ops)
        self.assertAlmostEqual(m["work_per_s"], 100.0)

    def test_concurrent_cells_add_their_work(self):
        ops = [op(1.0, work=100.0) for _ in range(8)]
        one = run.end_to_end_metrics(records(ops, cells=1), ops)
        four = run.end_to_end_metrics(records(ops, cells=4), ops)
        self.assertAlmostEqual(one["work_per_s"], 100.0)
        self.assertAlmostEqual(four["work_per_s"], 400.0)


class FailureAccounting(unittest.TestCase):
    def test_failed_and_warmup_operations_add_no_timing(self):
        ops = [op(9.0, warmup=True), op(1.0), op(2.0), op(3.0),
               op(100.0, ok=False), op(50.0, ok=False, warmup=True)]
        res = run.summarize(records(ops), False, SPEC)
        self.assertFalse(res["correct"])
        self.assertEqual(res["attempted"], 6)
        self.assertEqual(res["failed"], 2)
        self.assertEqual(res["metrics"]["solve_s"]["value"], 2.0)
        self.assertEqual(res["metrics"]["cpu_s"]["value"], 4.0)
        # Median rate of the 3 successful measured operations: 100 work
        # in 2 s.
        self.assertAlmostEqual(res["metrics"]["work_per_s"]["value"], 50.0)

    def test_all_good_is_correct(self):
        res = run.summarize(records([op(1.0, warmup=True), op(1.0)]), False,
                            SPEC)
        self.assertTrue(res["correct"])
        self.assertEqual((res["attempted"], res["failed"]), (2, 0))

    def test_setup_is_the_median_of_repeats(self):
        res = run.summarize(records([op(1.0)]), False, SPEC)
        self.assertAlmostEqual(res["metrics"]["setup_s"]["value"], 0.2)


class Schema(unittest.TestCase):
    def check(self, res, catalogue):
        self.assertEqual(set(res), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertIsInstance(res["correct"], bool)
        self.assertIsInstance(res["attempted"], int)
        self.assertIsInstance(res["failed"], int)
        self.assertGreaterEqual(res["attempted"], 1)
        want = {m["name"]: m["unit"] for m in catalogue}
        self.assertEqual(set(res["metrics"]), set(want))
        for name, metric in res["metrics"].items():
            self.assertEqual(set(metric), {"value", "unit"})
            self.assertEqual(metric["unit"], want[name])
            self.assertIsInstance(metric["value"], float)
        # The printed line is plain JSON and round-trips.
        self.assertEqual(json.loads(json.dumps(res)), res)

    def test_untraced_run_prints_every_end_to_end_metric(self):
        ops = [op(1.0, warmup=True)] + [op(1.0 + i / 10) for i in range(30)]
        self.check(run.summarize(records(ops), False, SPEC),
                   SPEC["end_to_end"])

    def test_traced_run_prints_every_per_layer_metric(self):
        ops = ([op(1.0, warmup=True)] +
               [op(1.0, traced=bool(i % 2), layer={"apps.seq_s": 0.5})
                for i in range(30)])
        hists = {"exec.task_service_ns": {"p50": 1024, "p99": 8192},
                 "exec.park_ns": {"sum": 3000.0}}
        self.check(run.summarize(records(ops, histograms=hists,
                                         backend="native"), True, SPEC),
                   SPEC["per_layer"])

    def test_setup_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))


class MissingSources(unittest.TestCase):
    def test_build_exits_nonzero_without_sources(self):
        with mock.patch.object(run, "ROOT", "/nonexistent-perfbench-root"):
            with self.assertRaises(SystemExit) as cm:
                run.build()
        self.assertNotEqual(cm.exception.code, 0)


if __name__ == "__main__":
    unittest.main()
