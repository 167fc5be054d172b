(* Generation 0 is never drawn, so a zeroed owner entry owns nothing. *)
let next_gen = Atomic.make 1
let fresh_gen () = Atomic.fetch_and_add next_gen 1

type 'p t = {
  mutable pages : 'p array;
  mutable owners : int array; (* per page: the generation it is private to *)
  mutable len : int;
  dup : 'p -> 'p;
}

let create dup = { pages = [||]; owners = [||]; len = 0; dup }
let length t = t.len

let init ~gen n dup f =
  { pages = Array.init n f; owners = Array.make n gen; len = n; dup }

let share t =
  { t with pages = Array.sub t.pages 0 t.len; owners = Array.make t.len 0 }

let writable t ~gen p =
  if t.owners.(p) = gen then t.pages.(p)
  else begin
    let pg = t.dup t.pages.(p) in
    t.pages.(p) <- pg;
    t.owners.(p) <- gen;
    pg
  end

let push t ~gen pg =
  if t.len = Array.length t.pages then begin
    let n = max 4 (2 * t.len) in
    let pages = Array.make n pg in
    Array.blit t.pages 0 pages 0 t.len;
    let owners = Array.make n 0 in
    Array.blit t.owners 0 owners 0 t.len;
    t.pages <- pages;
    t.owners <- owners
  end;
  t.pages.(t.len) <- pg;
  t.owners.(t.len) <- gen;
  t.len <- t.len + 1

(* Map buckets per page. *)
let bits = 6
let page_size = 1 lsl bits
let mask = page_size - 1

module type KEY = sig
  type t

  val absent : t
  val equal : t -> t -> bool
  val hash : t -> int
end

module type MAP = sig
  type key
  type 'v t

  val create : gen:int -> 'v -> 'v t
  val share : 'v t -> 'v t
  val count : 'v t -> int
  val find : 'v t -> key -> 'v
  val mem : 'v t -> key -> bool
  val replace : 'v t -> gen:int -> key -> 'v -> unit
  val remove : 'v t -> gen:int -> key -> unit
end

module Map (K : KEY) = struct
  type key = K.t
  type 'v page = { keys : K.t array; vals : 'v array }

  type nonrec 'v t = {
    mutable buckets : 'v page t;
    mutable count : int;
    mutable cap : int; (* a power of two, at most half full *)
    none : 'v;
  }

  let dup_page p = { keys = Array.copy p.keys; vals = Array.copy p.vals }

  let empty_buckets ~gen none cap =
    init ~gen (cap / page_size) dup_page (fun _ ->
        { keys = Array.make page_size K.absent; vals = Array.make page_size none })

  let create ~gen none =
    { buckets = empty_buckets ~gen none page_size; count = 0; cap = page_size; none }

  let share m = { m with buckets = share m.buckets }
  let count m = m.count

  let key_at m i = m.buckets.pages.(i lsr bits).keys.(i land mask)
  let val_at m i = m.buckets.pages.(i lsr bits).vals.(i land mask)

  let set_at m ~gen i k v =
    let pg = writable m.buckets ~gen (i lsr bits) in
    pg.keys.(i land mask) <- k;
    pg.vals.(i land mask) <- v

  (* The bucket holding [k], or the empty bucket ending its probe run. *)
  let probe m k =
    let msk = m.cap - 1 in
    let rec go i =
      let key = key_at m i in
      if key == K.absent || K.equal key k then i else go ((i + 1) land msk)
    in
    go (K.hash k land msk)

  let find m k =
    let i = probe m k in
    if key_at m i == K.absent then m.none else val_at m i

  let mem m k = not (key_at m (probe m k) == K.absent)

  let grow m ~gen =
    let old = m.buckets and old_cap = m.cap in
    m.cap <- 2 * old_cap;
    m.buckets <- empty_buckets ~gen m.none m.cap;
    for i = 0 to old_cap - 1 do
      let pg = old.pages.(i lsr bits) in
      let k = pg.keys.(i land mask) in
      if not (k == K.absent) then set_at m ~gen (probe m k) k pg.vals.(i land mask)
    done

  let replace m ~gen k v =
    let i = probe m k in
    if not (key_at m i == K.absent) then set_at m ~gen i k v
    else if 2 * (m.count + 1) > m.cap then begin
      grow m ~gen;
      set_at m ~gen (probe m k) k v;
      m.count <- m.count + 1
    end
    else begin
      set_at m ~gen i k v;
      m.count <- m.count + 1
    end

  (* Linear probing with backward-shift deletion: entries after the hole
     whose home bucket does not lie cyclically in (hole, j] move back, so
     no tombstones are ever left behind. *)
  let remove m ~gen k =
    let i = probe m k in
    if not (key_at m i == K.absent) then begin
      let msk = m.cap - 1 in
      let rec shift hole j =
        let j = (j + 1) land msk in
        let key = key_at m j in
        if key == K.absent then set_at m ~gen hole K.absent m.none
        else
          let h = K.hash key land msk in
          let movable =
            if hole <= j then h <= hole || h > j else h <= hole && h > j
          in
          if movable then begin
            set_at m ~gen hole key (val_at m j);
            shift j j
          end
          else shift hole j
      in
      shift i i;
      m.count <- m.count - 1
    end
end

module Int_key = struct
  type t = int

  let absent = min_int
  let equal = Int.equal

  let hash k =
    let h = k * 0x2545F4914F6CDD1D in
    h lxor (h lsr 31)
end

module String_key = struct
  type t = string

  (* compared physically: no key handed in can be this very string *)
  let absent = Bytes.to_string (Bytes.make 1 '\000')
  let equal = String.equal
  let hash (s : string) = Hashtbl.hash s
end

module Int_map = Map (Int_key)
module String_map = Map (String_key)
