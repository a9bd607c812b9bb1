"""End-to-end tests: generated systolic programs vs the sequential oracle.

These are the strongest tests in the repository: the symbolic closed forms
(first/last/count, soak/drain, i/o repeaters, Eq. 10) *drive* the network,
so agreement with the oracle validates every derivation at once.
"""

import pytest

from repro import profiling
from repro.core import compile_systolic
from repro.geometry import Point
from repro.lang import run_sequential
from repro.runtime import build_network, execute
from repro.runtime.network import network_plan
from repro.systolic import all_paper_designs
from repro.util.errors import RuntimeSimulationError


def poly_inputs(n, seed=0):
    return {
        "a": {Point.of(i): (i * 7 + seed) % 13 - 5 for i in range(n + 1)},
        "b": {Point.of(j): (j * 3 + seed) % 11 - 4 for j in range(n + 1)},
        "c": 0,
    }


def matmul_inputs(n, seed=0):
    rng = range(n + 1)
    return {
        "a": {Point.of(i, k): (i * 5 + k * 2 + seed) % 9 - 4 for i in rng for k in rng},
        "b": {Point.of(k, j): (k * 3 - j + seed) % 7 - 3 for k in rng for j in rng},
        "c": 0,
    }


def inputs_for(exp_id, n, seed=0):
    return poly_inputs(n, seed) if exp_id.startswith("D") else matmul_inputs(n, seed)


ALL = all_paper_designs()


class TestEndToEnd:
    @pytest.mark.parametrize("design_idx", [0, 1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_matches_oracle(self, design_idx, n):
        exp_id, prog, array = ALL[design_idx]
        sp = compile_systolic(prog, array)
        inputs = inputs_for(exp_id, n)
        final, stats = execute(sp, {"n": n}, inputs)
        oracle = run_sequential(prog, {"n": n}, inputs)
        for var in oracle:
            assert final[var] == oracle[var], f"{exp_id} n={n}: {var} differs"
        assert stats.makespan > 0
        assert stats.total_messages > 0

    @pytest.mark.parametrize("design_idx", [0, 1, 2, 3])
    @pytest.mark.parametrize("capacity", [0, 2])
    def test_capacity_insensitive(self, design_idx, capacity):
        """Results are identical under pure rendezvous and buffered links."""
        exp_id, prog, array = ALL[design_idx]
        sp = compile_systolic(prog, array)
        n = 2
        inputs = inputs_for(exp_id, n)
        final, _ = execute(sp, {"n": n}, inputs, channel_capacity=capacity)
        oracle = run_sequential(prog, {"n": n}, inputs)
        for var in oracle:
            assert final[var] == oracle[var]

    @pytest.mark.parametrize("design_idx", [0, 1, 2, 3])
    def test_capacity_does_not_change_makespan(self, design_idx):
        """Virtual time tracks dependences, not buffering."""
        exp_id, prog, array = ALL[design_idx]
        sp = compile_systolic(prog, array)
        inputs = inputs_for(exp_id, 3)
        spans = {
            execute(sp, {"n": 3}, inputs, channel_capacity=capacity)[1].makespan
            for capacity in (0, 1, 2, 8)
        }
        assert len(spans) == 1

    def test_second_size_adds_no_symbolic_miss(self):
        """The derived program is symbolic in n: running it at a new size
        only evaluates its compiled forms -- no derivation, guard,
        piecewise, Fourier-Motzkin, elimination, flow or place-search
        memo misses."""
        memos = (
            "symbolic",
            "derivation_memo",
            "fm_feasible",
            "linalg_rank",
            "linalg_null",
            "linalg_inverse",
            "stream_flows",
            "place_searches",
        )

        def misses():
            counters = profiling.snapshot()["counters"]
            return {
                (memo, key): value
                for memo in memos
                for key, value in counters[memo].items()
                if key.endswith("misses")
            }

        exp_id, prog, array = ALL[3]
        sp = compile_systolic(prog, array)
        execute(sp, {"n": 2}, inputs_for(exp_id, 2))
        before = misses()
        before_hits = profiling.snapshot()["counters"]["symbolic"]
        execute(sp, {"n": 5}, inputs_for(exp_id, 5))
        after = misses()
        after_hits = profiling.snapshot()["counters"]["symbolic"]
        assert ("derivation_memo", "misses") in after
        assert ("fm_feasible", "misses") in after
        changed = {
            k: after.get(k, 0) - before.get(k, 0)
            for k in after.keys() | before.keys()
            if after.get(k, 0) != before.get(k, 0)
        }
        assert changed == {}
        # the counters are live: the new size did evaluate compiled forms
        hits = "piecewise_compiled_cache_hits"
        assert after_hits[hits] > before_hits[hits]

    def test_degenerate_n0(self):
        """n = 0: single-statement programs still work."""
        for exp_id, prog, array in ALL:
            sp = compile_systolic(prog, array)
            inputs = inputs_for(exp_id, 0, seed=3)
            final, _ = execute(sp, {"n": 0}, inputs)
            oracle = run_sequential(prog, {"n": 0}, inputs)
            for var in oracle:
                assert final[var] == oracle[var], f"{exp_id} n=0"

    def test_readonly_streams_unchanged(self):
        exp_id, prog, array = ALL[0]
        sp = compile_systolic(prog, array)
        inputs = poly_inputs(3)
        final, _ = execute(sp, {"n": 3}, inputs)
        assert final["a"] == {Point(k): v for k, v in inputs["a"].items()}
        assert final["b"] == {Point(k): v for k, v in inputs["b"].items()}


class TestNetworkShape:
    def test_d1_process_inventory(self):
        """D.1 at size n: n+1 compute processes, n+1 latches for b (one per
        link into each process), 3 pipes worth of i/o processes."""
        exp_id, prog, array = ALL[0]
        sp = compile_systolic(prog, array)
        n = 4
        net = build_network(sp, {"n": n}, poly_inputs(n))
        assert net.node_counts["compute"] == n + 1
        assert net.node_counts["buffer"] == 0  # CS = PS for a simple place
        assert net.node_counts["latch"] == n + 1  # only stream b, denom 2
        assert net.node_counts["input"] == 3
        assert net.node_counts["output"] == 3

    def test_e2_has_external_buffers(self):
        """E.2: the hexagonal CS sits inside the square PS; corners buffer."""
        exp_id, prog, array = ALL[3]
        sp = compile_systolic(prog, array)
        n = 3
        net = build_network(sp, {"n": n}, matmul_inputs(n))
        side = 2 * n + 1
        hexagon = side * side - n * (n + 1)  # points with |col-row| <= n
        assert net.node_counts["compute"] == hexagon
        assert net.node_counts["buffer"] == side * side - hexagon
        assert net.node_counts["latch"] == 0

    def test_e1_no_buffers_at_all(self):
        exp_id, prog, array = ALL[2]
        sp = compile_systolic(prog, array)
        net = build_network(sp, {"n": 2}, matmul_inputs(2))
        assert net.node_counts["buffer"] == 0
        assert net.node_counts["latch"] == 0
        assert net.node_counts["compute"] == 9
        # one input and one output process per pipe: 3 streams x (n+1)
        assert net.node_counts["input"] == net.node_counts["output"] == 9
        assert net.run().process_count == 9 + 2 * 9

    def test_d2_process_inventory(self):
        """D.2: CS = PS = 0..2n, so 2n+1 compute processes and no buffers."""
        exp_id, prog, array = ALL[1]
        sp = compile_systolic(prog, array)
        n = 4
        net = build_network(sp, {"n": n}, poly_inputs(n))
        assert net.node_counts["compute"] == 2 * n + 1
        assert net.node_counts["buffer"] == 0

    @pytest.mark.parametrize("design_idx", [0, 1, 2, 3])
    def test_head_links_carry_eq10_totals(self, design_idx):
        """Every pipe's head link carries exactly the Eq. 10 pass amount
        of that pipe (zero for a pipe that misses the computation space)."""
        exp_id, prog, array = ALL[design_idx]
        sp = compile_systolic(prog, array)
        env = {"n": 3}
        plan = network_plan(sp, env)
        net = plan.instantiate(inputs_for(exp_id, 3))
        net.run()
        heads = 0
        for chan, (src, dst) in zip(net.scheduler._channels, plan.channel_ends):
            if src is None and dst is not None:
                stream = sp.plan(chan.name.split("_chan[")[0])
                expected = stream.pass_amount.evaluate(sp.bind(dst, env))
                assert chan.messages_carried == (expected or 0), chan.name
                heads += 1
        assert heads == net.node_counts["input"]

    def test_channel_occupancy_bounded(self):
        """No channel ever holds more than its capacity."""
        exp_id, prog, array = ALL[1]
        sp = compile_systolic(prog, array)
        net = build_network(sp, {"n": 3}, poly_inputs(3), channel_capacity=1)
        net.run()
        for chan in net.scheduler._channels:
            assert chan.max_occupancy <= 1


class TestHostChecks:
    def test_full_recovery_enforced(self):
        from repro.runtime.host import Host

        exp_id, prog, array = ALL[0]
        host = Host(prog, {"n": 2}, poly_inputs(2))
        with pytest.raises(RuntimeSimulationError):
            host.check_full_recovery("a")  # nothing recovered yet

    def test_double_write_rejected(self):
        from repro.runtime.host import Host

        exp_id, prog, array = ALL[0]
        host = Host(prog, {"n": 2}, poly_inputs(2))
        host.write_element("a", Point.of(0), 1)
        with pytest.raises(RuntimeSimulationError):
            host.write_element("a", Point.of(0), 2)

    def test_write_outside_space_rejected(self):
        from repro.runtime.host import Host

        exp_id, prog, array = ALL[0]
        host = Host(prog, {"n": 2}, poly_inputs(2))
        with pytest.raises(RuntimeSimulationError):
            host.write_element("a", Point.of(99), 1)

    def test_read_undefined_element(self):
        from repro.runtime.host import Host

        exp_id, prog, array = ALL[0]
        host = Host(prog, {"n": 2}, poly_inputs(2))
        with pytest.raises(RuntimeSimulationError):
            host.read_element("a", Point.of(99))


class TestGuardedBodyEndToEnd:
    def test_conditional_reset_program(self):
        """A body with an index guard compiles and runs correctly."""
        from repro.lang import parse_program
        from repro.geometry import Matrix
        from repro.systolic import SystolicArray

        text = """
size n
var a[0..n], b[0..n], c[0..2*n]
for i = 0 <- 1 -> n
for j = 0 <- 1 -> n
  if i == 0 -> c[i+j] := 0
  c[i+j] := c[i+j] + a[i] * b[j]
"""
        prog = parse_program(text)
        array = SystolicArray(
            step=Matrix([[2, 1]]),
            place=Matrix([[1, 0]]),
            loading_vectors={"a": Point.of(1)},
        )
        sp = compile_systolic(prog, array)
        n = 3
        inputs = poly_inputs(n, seed=1)
        inputs["c"] = 99  # the i==0 guard must reset each c element
        final, _ = execute(sp, {"n": n}, inputs)
        oracle = run_sequential(prog, {"n": n}, inputs)
        assert final["c"] == oracle["c"]
