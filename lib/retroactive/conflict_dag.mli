(** The replay conflict DAG (§4.4).

    Nodes are integer ids in ascending order (commit order), and an edge
    [(later, earlier)] means [later] must execute after [earlier]. Every
    edge points backwards, so ascending node order is a topological
    order: both derived views below are one forward scan.

    - {b wave layering}: longest-path levels. Every node lands one wave
      after the latest of its dependencies, so the entries of one wave
      are mutually conflict-free and may execute simultaneously
      ([Wave_exec] runs them on real domains);
    - {b makespan}: greedy list scheduling with a bounded worker count,
      the what-if cost model's simulated parallel replay time.

    A what-if question's DAG comes from [Analyzer.replay_dag]; the wave
    executor and the cost model read that same value. [Cc_schedule]
    builds one from its pairwise planner over uncommitted statements. *)

type edge = int * int
(** [(later, earlier)]: [later] conflicts with, and must run after,
    [earlier]. Both endpoints are node ids. *)

type t

val build : nodes:int list -> edges:edge list -> t
(** [nodes] strictly ascending. Duplicated edges are deduplicated.
    Raises [Invalid_argument] if the nodes are not ascending, or an edge
    names an id that is not a node or does not point backwards
    ([earlier < later]). *)

val of_preds : nodes:int array -> int array array -> t
(** The same DAG over dense positions, one row per node: [preds.(p)]
    lists the positions (indexes into [nodes]) node [p] must run after,
    in any order and possibly repeated. Raises [Invalid_argument] on a
    row count other than the node count, and under {!build}'s
    conditions, with a position outside [\[0, p)] as the bad edge. *)

val edge_count : t -> int
(** Distinct edges. *)

val edges : t -> edge list
(** Every distinct edge as node ids, ascending by [(later, earlier)]. *)

val waves : t -> int list list
(** Longest-path layering: wave [k] holds every node whose deepest
    dependency chain has length [k]. Within a wave, nodes keep ascending
    order. Concatenating the waves yields a valid execution order; nodes
    of one wave are pairwise non-adjacent in the DAG. *)

val wave_count : t -> int

val makespan : t -> weight:(int -> float) -> workers:int -> float
(** Greedy list-scheduling makespan over [workers] lanes, with [weight]
    giving each node's cost in milliseconds, nodes taken in ascending
    order onto the earliest free lane. With [workers] at least the node
    count this is the critical-path length; with one worker, the serial
    sum. [0.0] for an empty DAG. *)
