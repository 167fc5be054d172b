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
    executor and the cost model read that same value. The paper's §6
    scheduling experiment ([abl-cc] in [bench/main.ml]) asks it of a
    batch of planned statements that never ran. *)

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
    in any order and possibly repeated. Each row is sorted in place and
    kept when it holds no repeat. Raises [Invalid_argument] on a row
    count other than the node count, and under {!build}'s conditions,
    with a position outside [\[0, p)] as the bad edge. *)

(** Last-writer cells: the rows of {!of_preds} from the positions' cell
    accesses, in one ascending pass. A cell is a (group, key) pair; key
    0 is the group's wildcard, which overlaps every key of the group.
    Each cell keeps only its last writer and the readers since it:
    - a read orders after the last writer: a key's latest write or its
      group's latest wildcard write, whichever came later; a wildcard
      read after the latter and each key's last writer since it;
    - a write orders after the last writer and every overlapping reader
      since it, then stands as the last writer; a wildcard write does
      so for every key of its group, whose cells start over.
    Earlier accessors are ordered through the writers, so an access
    costs one cell lookup plus the readers it orders after, and no
    reader is ordered after another.

    The state is reused from one {!Cells.start} to the next; one value
    serves one pass at a time. *)
module Cells : sig
  type t

  val create : unit -> t

  val start : t -> nodes:int -> groups:int -> keys:int -> unit
  (** Begin a pass over positions [0 .. nodes - 1], on groups
      [0 .. groups - 1] and keys [0 .. keys - 1]. *)

  val access : t -> int -> write:bool -> group:int -> key:int -> unit
  (** [access t p ~write ~group ~key]: position [p] reads or writes the
      cell. A position's accesses come after every earlier position's
      {!take}. *)

  val take : t -> int array
  (** The distinct positions the current position orders after, from
      its accesses since the last [take]. *)

  val visits : t -> int
  (** Cell states and listed accessors visited since {!start}: one per
      access, one per writer or reader an access walks. *)
end

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
