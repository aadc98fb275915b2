"""Scaled SoC spec generator for the selection workload.

``soc(n_cpus, n_periph, seed)`` emits spec text in the flowtrace DSL for
a system with ``n_cpus`` CPUs (each with a private cache) and
``n_periph`` DMA peripherals on one shared bus and memory.  The flows
reuse the built-in prototype's three shapes:

* coherent read/write, where the cache snoops a peer cache; peers form a
  ring whose order is drawn from ``seed`` (the prototype is the
  two-CPU ring);
* non-coherent read/write straight through the bus;
* upstream DMA read/write from a peripheral.

Only the text is produced here.  The benchmark hands it to
``flowtrace.parse_system``, so parsing stays inside the measured program.
"""

from __future__ import annotations

import random

SYSTEM_NAME = "socgen"


def _coherent(cpu: int, peer: int, k: str) -> str:
    snp_out, snp_in = f"snp_{cpu}_{peer}", f"snp_{peer}_{cpu}"
    return f"""\
flow coh_{k}_{cpu}
  place p1 initial
  place p2 p3 p4 p5 p6 p7 p8
  place p9 end
  transition t1  pre {{p1}} post {{p2}} event CPU{cpu}:Cache{cpu}:{k}_req on c{cpu}_req_coh
  transition t2  pre {{p2}} post {{p3}} event Cache{cpu}:Cache{peer}:snp_{k}_req on {snp_out}
  transition t3  pre {{p3}} post {{p4}} event Cache{peer}:Cache{cpu}:snp_{k}_resp on {snp_in}
  transition t4  pre {{p4}} post {{p5}} event Cache{cpu}:Bus:{k}_req on cache{cpu}_bus_{k}
  transition t5  pre {{p5}} post {{p6}} event Bus:Mem:rd_req on bus_mem_rd
  transition t6  pre {{p6}} post {{p7}} event Mem:Bus:rd_resp on mem_bus_rd
  transition t7  pre {{p7}} post {{p8}} event Bus:Cache{cpu}:{k}_resp on bus_cache{cpu}_{k}
  transition t8  pre {{p8}} post {{p9}} event Cache{cpu}:CPU{cpu}:{k}_resp on c{cpu}_resp_coh
  transition t9  pre {{p4}} post {{p9}} event Cache{cpu}:CPU{cpu}:{k}_resp on c{cpu}_resp_coh
  transition t10 pre {{p2}} post {{p9}} event Cache{cpu}:CPU{cpu}:{k}_resp on c{cpu}_resp_coh
"""


def _noncoherent(cpu: int, k: str) -> str:
    return f"""\
flow nc_{k}_{cpu}
  place q1 initial
  place q2 q3 q4 q5 q6
  place q7 end
  transition u1 pre {{q1}} post {{q2}} event CPU{cpu}:Cache{cpu}:nc_{k}_req on c{cpu}_req_nc
  transition u2 pre {{q2}} post {{q3}} event Cache{cpu}:Bus:{k}_req on cache{cpu}_bus_{k}
  transition u3 pre {{q3}} post {{q4}} event Bus:Mem:{k}_req on bus_mem_{k}
  transition u4 pre {{q4}} post {{q5}} event Mem:Bus:{k}_resp on mem_bus_{k}
  transition u5 pre {{q5}} post {{q6}} event Bus:Cache{cpu}:{k}_resp on bus_cache{cpu}_{k}
  transition u6 pre {{q6}} post {{q7}} event Cache{cpu}:CPU{cpu}:nc_{k}_resp on c{cpu}_resp_nc
"""


def _upstream(block: str, k: str) -> str:
    short = block.lower()
    return f"""\
flow up_{k}_{short}
  place r1 initial
  place r2 r3 r4 r5
  place r6 end
  transition v1 pre {{r1}} post {{r2}} event {block}:Bus:{k}_req on {short}_bus
  transition v2 pre {{r2}} post {{r3}} event Bus:{block}:dma_gnt on bus_{short}
  transition v3 pre {{r3}} post {{r4}} event Bus:Mem:{k}_req on bus_mem_{k}
  transition v4 pre {{r4}} post {{r5}} event Mem:Bus:{k}_resp on mem_bus_{k}
  transition v5 pre {{r5}} post {{r6}} event Bus:{block}:{k}_resp on bus_{short}
"""


def snoop_ring(n_cpus: int, seed: int) -> dict[int, int]:
    """Each CPU's snoop peer: its successor on a seed-shuffled ring."""
    order = list(range(n_cpus))
    random.Random(seed).shuffle(order)
    return {cpu: order[(i + 1) % n_cpus] for i, cpu in enumerate(order)}


def soc(n_cpus: int, n_periph: int, seed: int = 0) -> str:
    """Spec text for an ``n_cpus`` x ``n_periph`` SoC; needs two or more CPUs."""
    if n_cpus < 2 or n_periph < 0:
        raise ValueError("soc needs at least two CPUs and a non-negative peripheral count")
    peer = snoop_ring(n_cpus, seed)
    cpus = range(n_cpus)
    periph = [f"P{j}" for j in range(n_periph)]

    out = [f"system {SYSTEM_NAME}", ""]
    components = [f"CPU{i}" for i in cpus] + [f"Cache{i}" for i in cpus]
    out.append("component " + " ".join(components + ["Bus", "Mem"] + periph))
    out.append("")

    snoop_links: set[tuple[int, int]] = set()
    for i in cpus:
        out += [
            f"link c{i}_req_coh CPU{i} -> Cache{i} channel 0",
            f"link c{i}_req_nc CPU{i} -> Cache{i} channel 1",
            f"link c{i}_resp_coh Cache{i} -> CPU{i} channel 0",
            f"link c{i}_resp_nc Cache{i} -> CPU{i} channel 1",
        ]
        for j, k in ((0, "wr"), (1, "rd")):
            out.append(f"link cache{i}_bus_{k} Cache{i} -> Bus channel {j}")
            out.append(f"link bus_cache{i}_{k} Bus -> Cache{i} channel {j}")
        snoop_links |= {(i, peer[i]), (peer[i], i)}
    for a, b in sorted(snoop_links):
        out.append(f"link snp_{a}_{b} Cache{a} -> Cache{b}")
    for j, k in ((0, "wr"), (1, "rd")):
        out.append(f"link bus_mem_{k} Bus -> Mem channel {j}")
        out.append(f"link mem_bus_{k} Mem -> Bus channel {j}")
    for block in periph:
        out.append(f"link {block.lower()}_bus {block} -> Bus")
        out.append(f"link bus_{block.lower()} Bus -> {block}")
    out.append("")

    for i in cpus:
        for k in ("wr", "rd"):
            out.append(_coherent(i, peer[i], k))
            out.append(_noncoherent(i, k))
    for block in periph:
        for k in ("wr", "rd"):
            out.append(_upstream(block, k))

    for i in cpus:
        out.append(f"initiator CPU{i} flows {{coh_wr_{i},coh_rd_{i},nc_wr_{i},nc_rd_{i}}}")
    for block in periph:
        short = block.lower()
        out.append(f"initiator {block} flows {{up_wr_{short},up_rd_{short}}}")
    return "\n".join(out) + "\n"
