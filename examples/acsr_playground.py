#!/usr/bin/env python3
"""Working with ACSR directly: the paper's Figures 2 and 3.

The library's ACSR layer is a full process algebra usable on its own:
build terms with combinators or parse the VERSA-like concrete syntax,
inspect prioritized transitions, explore state spaces, minimize modulo
strong bisimulation, and export to networkx.

Run:  python examples/acsr_playground.py
"""

from repro.acsr import (
    format_env,
    format_label,
    format_term,
    parse_env,
)
from repro.engine import explore
from repro.versa import LTS, bisimulation_quotient, find_reachable
from repro.versa.queries import contains_proc

# Figure 2b + Figure 3, in concrete syntax.  Simple computes one step on
# the cpu then one on cpu+bus and announces completion; the driver steals
# the bus for one quantum, then either interrupts Simple or starves it
# off the cpu until it raises the exception.
SOURCE = r"""
-- Figure 2b: Simple with idling steps so it can wait for resources.
process Simple  = {(cpu,1)} : Step2
                + idle : (exc!,1) . Simple;
process Step2   = {(cpu,1),(bus,1)} : (done!,1) . Simple
                + idle : Step2;

-- Figure 3 driver: disjoint step, preempting step, a pause, then the
-- two alternative behaviours.
process Driver  = {(bus,2)} : {(bus,2)} : idle :
                  ( (interrupt!,0) . DriverIdle
                  + {(cpu,2)} : Starver );
process Starver = {(cpu,2)} : Starver;
process DriverIdle = idle : DriverIdle;

process ExcHandler = idle : ExcHandler;
process IntHandler = idle : IntHandler;

system ( scope( Simple; inf;
                except exc -> ExcHandler;
                interrupt -> (interrupt?,0) . IntHandler )
         || Driver ) \ {interrupt};
"""


def main() -> None:
    env, root = parse_env(SOURCE)
    print("=== parsed model (round-tripped through the printer) ===")
    print(format_env(env, root))

    system = env.close(root)
    print("=== prioritized steps from the initial state ===")
    for label, successor in system.prioritized_steps():
        print(f"  {format_label(label):<24s} -> {format_term(successor)[:60]}")

    print()
    print("=== exhaustive exploration ===")
    result = explore(system, store_transitions=True)
    print(f"  {result}")

    for target, description in (
        ("IntHandler", "interrupt exit (involuntary release)"),
        ("ExcHandler", "exception exit (voluntary release when starved)"),
    ):
        trace = find_reachable(system, contains_proc(target))
        status = "reachable" if trace is not None else "NOT reachable"
        print(f"  {description}: {status}")
        if trace is not None:
            for step in trace:
                print(f"      {format_label(step.label)}")

    print()
    print("=== LTS export and bisimulation minimization ===")
    lts = LTS.from_exploration(result)
    quotient, _ = bisimulation_quotient(lts)
    print(f"  explored LTS:  {lts}")
    print(f"  quotient:      {quotient}")
    graph = lts.to_networkx()
    print(
        f"  networkx view: {graph.number_of_nodes()} nodes, "
        f"{graph.number_of_edges()} edges"
    )


if __name__ == "__main__":
    main()
