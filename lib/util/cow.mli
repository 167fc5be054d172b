(** Page-granular copy-on-write arrays and hash maps.

    A {!t} is a spine of fixed-size pages. Every writer names itself by
    an ownership generation drawn from {!fresh_gen}; the spine records,
    per page, the generation that page is private to. {!share} gives a
    second handle its own spine over the same pages with no page owned,
    and the caller moves the source to a fresh generation, so afterwards
    neither side owns a shared page: the first write to a page through
    {!writable} copies that page, and only that page. A share costs
    O(pages); a write costs O(page) the first time and O(1) after.

    Pages are whatever the caller makes them (fixed-size arrays, or
    records of them); the caller fixes the page size and reads [pages]
    directly, one extra load per element over a flat array. Handles are
    not thread-safe; callers hold their own lock. *)

val fresh_gen : unit -> int
(** A generation never drawn before (atomic across domains). *)

type 'p t = private {
  mutable pages : 'p array;  (** the spine; only the first [len] are live *)
  mutable owners : int array;
  mutable len : int;
  dup : 'p -> 'p;
}

val create : ('p -> 'p) -> 'p t
(** An empty spine whose pages are copied with the given function. *)

val init : gen:int -> int -> ('p -> 'p) -> (int -> 'p) -> 'p t
(** [init ~gen n dup f]: [n] fresh pages [f 0 .. f (n-1)], owned by [gen]. *)

val length : 'p t -> int
(** Live pages. *)

val share : 'p t -> 'p t
(** A new handle on the same pages, owning none of them. O(pages). *)

val writable : 'p t -> gen:int -> int -> 'p
(** Page [p], copied first unless [gen] already owns it. *)

val push : 'p t -> gen:int -> 'p -> unit
(** Append a fresh page owned by [gen]. *)

(** Open-addressing hash maps (linear probing, at most half full,
    backward-shift deletion) whose buckets are {!t} pages of 64: sharing
    is O(buckets / 64) and a write copies only the bucket pages it
    touches. Growth rehashes into fresh pages. *)
module type MAP = sig
  type key
  type 'v t

  val create : gen:int -> 'v -> 'v t
  (** [create ~gen none]: an empty map; [none] is what {!find} returns
      for an unbound key. *)

  val share : 'v t -> 'v t
  val count : 'v t -> int

  val find : 'v t -> key -> 'v
  (** The bound value, or the map's [none]. *)

  val mem : 'v t -> key -> bool
  val replace : 'v t -> gen:int -> key -> 'v -> unit
  val remove : 'v t -> gen:int -> key -> unit
end

module Int_map : MAP with type key = int
module String_map : MAP with type key = string
