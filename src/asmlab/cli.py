"""Command-line surface wiring the library into one pipeline.

Subcommands follow the modeling ladder: ``simulate`` produces reads,
``scs`` runs the superstring solvers, ``assemble`` runs the graph-based
assemblers (maximal unitigs or the shortest edge-covering walk), ``eval``
scores contigs against a truth genome, and ``stage`` drives a whole
simulate -> assemble -> evaluate run from a config file, through the same
steps of :mod:`asmlab.evaluate` as the subcommands.

Exit codes: 0 success, 1 domain error (bad graph shape, solver caps,
unparseable data files, bad values in a config file, a genome shorter than
its reads or gaps, reads too short for the graph or to correct, contigs
shorter than k-1), 2 usage error (bad flags, parameter values or a config
missing a key its stage needs).
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

import numpy as np

from asmlab import graph as dbg
from asmlab import simulate
from asmlab.errors import AssemblyError
from asmlab.evaluate import (
    assemble_contigs,
    check_genome,
    correct_to_assemble,
    evaluate,
    read_genome,
    run_stage,
    sample_reads,
    write_reads,
)
from asmlab.formats import (
    FastaRecord,
    parse_gaps,
    read_config,
    read_named,
    read_reads,
    write_fasta,
)
from asmlab.sequence import DnaString, check_k
from asmlab.superstring import diagnose_overcollapse, exact_scs, greedy_scs
from asmlab.unitig import ContigSet, unitig_contigs

ARTIFACT_DIR_ENV = "ASMLAB_ARTIFACTS"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="asmlab",
        description=(
            "Genome-assembly modeling lab: read simulation, superstring and "
            "graph-walk assemblers, safe contigs via unitigs, and a staged "
            "evaluation harness."
        ),
    )
    parser.add_argument("--verbose", action="store_true", help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser(
        "simulate",
        help="sample reads from a genome (idealized or uniform with errors/gaps)",
    )
    src = sim.add_mutually_exclusive_group(required=True)
    src.add_argument("--genome", help="FASTA whose first record is the genome")
    src.add_argument("--random-length", type=int,
                     help="synthesize a uniform random genome of this length")
    sim.add_argument("--plant-repeat", metavar="LEN,COPIES",
                     help="plant an exact repeat in the random genome")
    sim.add_argument("--reads", required=True, help="output reads FASTA")
    sim.add_argument("--genome-out", help="also write the genome FASTA here")
    sim.add_argument("--num", type=int, help="number of reads (uniform mode)")
    sim.add_argument("--len", dest="read_length", type=int, required=True,
                     help="read length in nt")
    sim.add_argument("--error-rate", type=float, default=0.0,
                     help="per-base substitution probability")
    sim.add_argument("--gap", action="append", default=[], metavar="START:END",
                     help="exclude this genome interval from sampling (repeatable)")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--idealized", action="store_true",
                     help="one exact read per position; ignores --num/--error-rate/--gap")

    scs = sub.add_parser(
        "scs",
        help="shortest-common-superstring solvers (greedy heuristic or exact search)",
    )
    scs.add_argument("--reads", required=True)
    mode = scs.add_mutually_exclusive_group(required=True)
    mode.add_argument("--greedy", action="store_true")
    mode.add_argument("--exact", action="store_true")
    scs.add_argument("--out", required=True, help="output superstring FASTA")
    scs.add_argument("--read-len", type=int,
                     help="print the repeat/over-collapse diagnostic for this read length")

    asm = sub.add_parser(
        "assemble",
        help="graph assemblers: maximal unitigs (safe contigs) or the "
             "shortest edge-covering walk per component",
    )
    asm.add_argument("--reads", required=True)
    asm.add_argument("-k", type=int, required=True, help="graph order (k-mer length)")
    asm.add_argument("--method", choices=["unitig", "cpp-walk"], required=True)
    asm.add_argument("--out", required=True, help="output contigs FASTA")
    asm.add_argument("--correct", type=int, metavar="MINMULT",
                     help="pre-correct reads at this minimum k-mer multiplicity")
    asm.add_argument("--dot", help="also dump the graph as DOT")

    graph_cmd = sub.add_parser(
        "dbg",
        help="de Bruijn graph utilities: build an edge-list fixture, test a "
             "string against the graph, solve a covering walk, or render DOT",
    )
    gsub = graph_cmd.add_subparsers(dest="dbg_command", required=True)
    gbuild = gsub.add_parser("build", help="build a graph and write its edge-list fixture")
    gbuild.add_argument("--reads", required=True)
    gbuild.add_argument("-k", type=int, required=True)
    gbuild.add_argument("--out", required=True, help="edge-list fixture path")
    gwalk = gsub.add_parser(
        "walk",
        help="find the walk spelling a string (or the first missing k-mer), "
             "or solve the shortest edge-covering walk",
    )
    gwalk.add_argument("--graph", required=True, help="edge-list fixture")
    what = gwalk.add_mutually_exclusive_group(required=True)
    what.add_argument("--text", help="string to locate as a walk")
    what.add_argument("--shortest", action="store_true",
                      help="solve the shortest edge-covering walk")
    gwalk.add_argument("--out", help="write the walk's spelled string as FASTA")
    gdot = gsub.add_parser("dot", help="render an edge-list fixture as DOT")
    gdot.add_argument("--graph", required=True)
    gdot.add_argument("--out", required=True)
    gdot.add_argument("--unitigs", action="store_true",
                      help="color vertices by maximal unitig")

    ev = sub.add_parser("eval", help="score contigs against a truth genome")
    ev.add_argument("--contigs", required=True)
    ev.add_argument("--truth", required=True)
    ev.add_argument("-k", type=int, required=True)
    ev.add_argument("--report", required=True,
                    help="report path (text; a .json twin is written alongside)")

    st = sub.add_parser(
        "stage",
        help="run one evaluation stage (1 idealized, 2 degraded, 3 real reads) from a config",
    )
    st.add_argument("--stage", type=int, choices=[1, 2, 3], required=True)
    st.add_argument("--config", required=True)
    st.add_argument("--out-dir", help=f"artifact directory (default ${ARTIFACT_DIR_ENV} or cwd)")

    return parser


def _cmd_simulate(args) -> int:
    if args.read_length is None or args.read_length < 1:
        raise ValueError("--len must be a positive integer")
    if args.seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
    if not args.genome and (args.random_length is None or args.random_length < 1):
        raise ValueError("--random-length must be a positive integer")
    planted = None
    if args.plant_repeat:
        if args.genome:
            raise ValueError("--plant-repeat only applies to --random-length genomes")
        length, _, copies = args.plant_repeat.partition(",")
        try:
            planted = int(length), int(copies)
        except ValueError:
            raise ValueError(f"--plant-repeat expects LEN,COPIES as two integers, "
                             f"got {args.plant_repeat!r}") from None
    gaps = ()
    if not args.idealized:  # idealized reads ignore --num, --error-rate and --gap
        if args.num is None:
            raise ValueError("--num is required unless --idealized is given")
        if args.num < 1:
            raise ValueError(f"--num must be a positive integer, got {args.num}")
        if not 0.0 <= args.error_rate < 1.0:
            raise ValueError(f"--error-rate must be in [0, 1), got {args.error_rate}")
        gaps = parse_gaps(" ".join(args.gap))
        simulate.check_gaps(gaps)
    if args.genome:  # a genome file too short for the reads is a data error
        genome = read_genome(args.genome)
        check_genome(args.genome, genome, args.read_length, gaps)
    else:
        genome = simulate.random_genome(args.random_length, planted, seed=args.seed)
    num_reads = None if args.idealized else args.num
    reads = sample_reads(genome, args.read_length, num_reads, args.error_rate, gaps, args.seed)
    write_reads(reads, args.reads)
    if args.genome_out:
        write_fasta([FastaRecord("truth", genome)], args.genome_out)
    print(f"wrote {len(reads)} reads to {args.reads}")
    return 0


def _cmd_scs(args) -> int:
    if args.read_len is not None and args.read_len < 1:
        raise ValueError(f"--read-len must be a positive integer, got {args.read_len}")
    reads = read_reads(args.reads)
    result = exact_scs(reads) if args.exact else greedy_scs(reads)
    write_fasta(
        [FastaRecord("s0", result.superstring,
                     description=f"method={result.method} length={len(result.superstring)}")],
        args.out,
    )
    trace_path = Path(args.out).with_suffix(Path(args.out).suffix + ".trace")
    lines = [f"method = {result.method}", f"length = {len(result.superstring)}"]
    for step in result.merge_order:
        lines.append(f"read {step.read_index}\t{step.side}\toverlap={step.overlap}")
    trace_path.write_text("\n".join(lines) + "\n", encoding="ascii")
    print(f"superstring length {len(result.superstring)} -> {args.out}")
    if args.read_len:
        report = diagnose_overcollapse(result, args.read_len)
        print(report.describe())
    return 0


def _cmd_assemble(args) -> int:
    dbg.check_order(args.k)
    if args.correct is not None and args.correct < 1:
        raise ValueError("--correct MINMULT must be >= 1")
    reads = read_reads(args.reads)
    if args.correct is not None:
        lengths = reads.lengths
        short = np.flatnonzero(lengths < args.k)
        if len(short):
            number = int(short[0])
            raise AssemblyError(f"{args.reads}: record {number + 1} has "
                                f"{lengths[number]} nt, shorter than k={args.k}; "
                                "read correction needs every read to hold a k-mer")
        reads = correct_to_assemble(reads, args.k, args.correct, args.reads)
    contigs, graph = assemble_contigs(reads, args.k, args.method)
    write_fasta(contigs, args.out)
    if args.dot:
        highlight = contigs.sequences if args.method == "unitig" else None
        with open(args.dot, "w", encoding="ascii", newline="\n") as handle:
            dbg.export_dot(graph, handle, highlight)
    print(f"wrote {len(contigs)} contig(s) to {args.out}")
    return 0


def _cmd_dbg(args) -> int:
    from asmlab.formats import read_edge_list, write_edge_list

    if args.dbg_command == "build":
        dbg.check_order(args.k)
        graph = dbg.build(read_reads(args.reads), args.k)
        write_edge_list(graph, args.out)
        print(f"wrote {graph.num_edges} edges / {len(graph.packed_vertices)} vertices "
              f"to {args.out}")
        return 0
    graph = read_edge_list(args.graph)
    if args.dbg_command == "dot":
        highlight = unitig_contigs(graph).sequences if args.unitigs else None
        with open(args.out, "w", encoding="ascii", newline="\n") as handle:
            dbg.export_dot(graph, handle, highlight)
        print(f"wrote DOT to {args.out}")
        return 0
    # walk
    if args.shortest:
        if not graph.num_edges:
            raise AssemblyError(f"{args.graph}: graph has no edges; nothing to cover")
        walk = dbg.shortest_edge_covering_walk(graph)
        spelled = dbg.spell(walk)
        print(f"shortest edge-covering walk: {len(walk.edges)} edges, "
              f"spells {spelled}")
    else:
        walk = dbg.walk_of(args.text, graph)
        if walk is None:
            kmer, pos = dbg.first_missing_kmer(args.text, graph)
            print(f"not spelled by any walk: k-mer {kmer} at position {pos} "
                  "is not an edge")
            return 1
        spelled = args.text
        print(f"spelled by a unique walk of {len(walk.edges)} edges")
    if args.out:
        write_fasta([FastaRecord("walk", DnaString(spelled))], args.out)
    return 0


def _cmd_eval(args) -> int:
    check_k(args.k)
    names, sequences = read_named(args.contigs)
    lengths = sequences.lengths
    short = np.flatnonzero(lengths < args.k - 1)
    if len(short):
        number = int(short[0])
        raise AssemblyError(f"{args.contigs}: record {number + 1} ({names[number]}) has "
                            f"{lengths[number]} nt, shorter than k-1={args.k - 1}")
    contigs = ContigSet(args.k, sequences, names, "file")
    report = evaluate(contigs, read_genome(args.truth), args.k)
    text = report.to_text()
    Path(args.report).write_text(text, encoding="ascii")
    json_path = Path(args.report).with_suffix(Path(args.report).suffix + ".json")
    json_path.write_text(report.to_json(), encoding="ascii")
    print(text, end="")
    return 0


def _cmd_stage(args) -> int:
    config = read_config(args.config)
    out_dir = args.out_dir  # run_stage falls back to the config's, then ./asmlab-stage<N>
    if not (out_dir or config.out_dir) and os.environ.get(ARTIFACT_DIR_ENV):
        out_dir = Path(os.environ[ARTIFACT_DIR_ENV]) / f"stage{args.stage}"
    result = run_stage(args.stage, config, out_dir=out_dir, source=args.config)
    print(f"artifacts in {result.artifact_dir}")
    print(result.report_text, end="")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "scs": _cmd_scs,
    "assemble": _cmd_assemble,
    "dbg": _cmd_dbg,
    "eval": _cmd_eval,
    "stage": _cmd_stage,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        return _COMMANDS[args.command](args)
    except AssemblyError as exc:  # before ValueError: a ConfigError is both
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
