open Uv_sql

type rowid = int

module Cow = Uv_util.Cow
module Rowid_map = Cow.Int_map
module Int_map = Cow.Int_map
module Key_map = Cow.String_map

(* Slots per page of every per-slot array and of the string pool. A
   literal here rather than a value imported from [Cow]: the scan path
   shifts and masks by it per cell, and a constant from another module
   is a memory load in builds without cross-module inlining. *)
let page_bits = 6
let page_size = 1 lsl page_bits
let page_mask = page_size - 1

(* Cell tags: each live slot of a column carries one byte naming the
   dynamic kind of the stored value. Bools are folded into the tag so
   they occupy no payload; texts store a string-pool id. *)
let tag_free = '\000'
let tag_null = '\001'
let tag_int = '\002'
let tag_float = '\003'
let tag_text = '\004'
let tag_true = '\005'
let tag_false = '\006'

(* One page of a column: a tag byte per slot plus unboxed payload
   arrays. [ints] holds Int payloads and string-pool ids; [floats] is
   allocated on the first Float stored in the page. *)
type cells = {
  tags : Bytes.t;
  ints : int array;
  mutable floats : float array; (* [||] until the page sees a float *)
}

let fresh_cells () =
  { tags = Bytes.make page_size tag_free;
    ints = Array.make page_size 0; floats = [||] }

let dup_cells p =
  { tags = Bytes.copy p.tags; ints = Array.copy p.ints;
    floats = (if Array.length p.floats = 0 then [||] else Array.copy p.floats) }

(* The rowids under one index key. Most keys (every PRIMARY KEY and
   UNIQUE value) hold one rowid, kept inline and immutable; a key that
   gets a second rowid holds a set private to the table generation that
   created it: a table writes in place only into sets carrying its
   current [gen], and copies any other before its first write to that
   key. A set left with one rowid goes back to [One]. *)
type posting =
  | No_posting (* what an unbound key maps to *)
  | One of rowid
  | Many of { p_gen : int; p_ids : (rowid, unit) Hashtbl.t }

type t = {
  (* Guards every access during parallel replay (Wave_exec): the wave
     layering keeps conflicting statements in different waves, but
     same-wave statements may still touch disjoint rows of one table,
     and the slot pages are not domain-safe even for disjoint slots
     (writes may copy a page). The lock is the writer-priority [Rwlock]
     variant, so a mutation queued behind a stream of concurrent scans
     is admitted as soon as the already-running read sections drain.
     Writer priority makes nested read acquisition a deadlock, so scan
     callbacks and [Col] predicates must never re-enter this table's
     lock: predicates are pure row functions, and the engine collects
     matching rows before mutating or running subqueries. *)
  lock : Uv_util.Rwlock.t;
  mutable schema : Schema.table;
  (* Copy-on-write ownership: every page, map bucket page and posting
     set below is written in place only while it is private to [gen].
     [copy] moves the source to a fresh generation and gives the copy
     another, so neither owns what they now share and each write copies
     just the page (or posting) it lands in. *)
  mutable gen : int;
  (* columnar body: slot-indexed, paged struct-of-arrays *)
  mutable cols : cells Cow.t array; (* length >= widest row ever stored *)
  mutable widths : int array Cow.t; (* per-slot row width; -1 = dead slot *)
  mutable rowids : int array Cow.t; (* per-slot rowid, kept after death *)
  mutable hi : int; (* slots handed out (dead ones included) *)
  mutable live : int;
  mutable slots : int Rowid_map.t; (* live rowid -> slot; -1 if absent *)
  (* interned string pool (append-only) *)
  mutable pool : string array Cow.t;
  mutable pool_len : int;
  mutable pool_ids : int Key_map.t; (* string -> pool id; -1 if absent *)
  (* every slot, live or dead, in ascending rowid order: scans walk it
     and skip dead entries *)
  mutable order : int array Cow.t;
  mutable next_rowid : rowid;
  mutable next_auto : int;
  (* incremental table hash (§4.5), split into the base value and a
     batched delta: mutations fold row digests into [pending] (one
     modular add per statement for the batched entry points), and the
     published hash is always [base + pending mod p] — reading it never
     writes, so concurrent readers race on nothing *)
  mutable hash_base : int64;
  mutable pending : int64;
  mutable indexes : index list;
}

(* A hash index: postings are per-key rowid sets, so adding and
   removing a row is O(1) amortized once the posting is private. A key
   is an integer when the value's class has one ([int_key]) and a string
   otherwise ([str_key]). The column offset is resolved once — at index
   build and on schema changes — instead of per mutated row. *)
and index = {
  ix_col : string;
  mutable ix_offset : int option; (* None: column absent from the schema *)
  ix_ints : posting Int_map.t;
  ix_strs : posting Key_map.t;
}

let locked t f = Uv_util.Rwlock.write t.lock f
let reading t f = Uv_util.Rwlock.read t.lock f

let make_index ~gen schema col =
  { ix_col = col; ix_offset = Schema.column_index schema col;
    ix_ints = Int_map.create ~gen No_posting;
    ix_strs = Key_map.create ~gen No_posting }

let create schema =
  let gen = Cow.fresh_gen () in
  let t =
    {
      lock = Uv_util.Rwlock.create ~writer_priority:true ();
      schema;
      gen;
      cols =
        Array.init (List.length schema.Schema.tbl_columns) (fun _ ->
            Cow.create dup_cells);
      widths = Cow.create Array.copy;
      rowids = Cow.create Array.copy;
      hi = 0;
      live = 0;
      slots = Rowid_map.create ~gen (-1);
      pool = Cow.create Array.copy;
      pool_len = 0;
      pool_ids = Key_map.create ~gen (-1);
      order = Cow.create Array.copy;
      next_rowid = 1;
      next_auto = 1;
      hash_base = 0L;
      pending = 0L;
      indexes = [];
    }
  in
  (* primary-key and UNIQUE columns get an index out of the box *)
  List.iter
    (fun c -> t.indexes <- make_index ~gen schema c :: t.indexes)
    (Schema.primary_key_columns schema @ Schema.unique_columns schema);
  t

let schema t = t.schema

let name t = t.schema.Schema.tbl_name

let row_count t = reading t (fun () -> t.live)

let hash t =
  reading t (fun () -> Uv_util.Table_hash.add_mod t.hash_base t.pending)

let next_auto_value t = reading t (fun () -> t.next_auto)

let next_rowid t = reading t (fun () -> t.next_rowid)

(* ------------------------------------------------------------------ *)
(* Copy-on-write                                                        *)
(* ------------------------------------------------------------------ *)

(* O(columns + pages): both sides keep every page, bucket page and
   posting, and neither owns any of them afterwards. The source changes
   generation, so this takes its write lock. *)
let copy t =
  locked t (fun () ->
      t.gen <- Cow.fresh_gen ();
      {
        t with
        lock = Uv_util.Rwlock.create ~writer_priority:true ();
        gen = Cow.fresh_gen ();
        cols = Array.map Cow.share t.cols;
        widths = Cow.share t.widths;
        rowids = Cow.share t.rowids;
        slots = Rowid_map.share t.slots;
        pool = Cow.share t.pool;
        pool_ids = Key_map.share t.pool_ids;
        order = Cow.share t.order;
        indexes =
          List.map
            (fun ix ->
              { ix with ix_ints = Int_map.share ix.ix_ints;
                ix_strs = Key_map.share ix.ix_strs })
            t.indexes;
      })

(* ------------------------------------------------------------------ *)
(* Counters                                                             *)
(* ------------------------------------------------------------------ *)

let take_auto_value t =
  locked t (fun () ->
      let v = t.next_auto in
      t.next_auto <- v + 1;
      v)

let bump_auto_value t v =
  locked t (fun () -> if v >= t.next_auto then t.next_auto <- v + 1)

let set_auto_value t v = locked t (fun () -> t.next_auto <- max 1 v)

let set_rowid_floor t v =
  locked t (fun () -> if v > t.next_rowid then t.next_rowid <- v)

(* ------------------------------------------------------------------ *)
(* Index keys                                                           *)
(* ------------------------------------------------------------------ *)

(* Index keys must respect SQL equality classes: [Value.compare_sql]
   compares numbers (Int, Float, Bool) as floats, and a text against a
   number as the float it parses to, so a value's key is the class of
   [Value.to_float]: Int 5, Float 5.0, Bool-ish 1/0 and the numeric
   string "5" share a key, and so do Int (2^53 + 1) and Float 2^53. A
   key is a superset of SQL equality (Int 2^53 and Int (2^53 + 1), or
   "5" and "5.0", share one while comparing unequal), so probes are
   filtered by their statement's predicate. Integral floats below 2^62
   in magnitude — at most 2^62 - 512 — key by that integer, NULL by
   [max_int], which no number reaches; every other class (other floats,
   one key for every NaN, and texts that parse to no float) has a
   string key. *)
let no_int_key = min_int (* never a key of an [Int_map] *)

let float_key f =
  if Float.is_integer f && Float.abs f < 0x1p62 then int_of_float f else no_int_key

let text_float s = float_of_string_opt (String.trim s)

(* The value's integer key, or [no_int_key] when its class has a string
   key. Ints up to 2^53 convert to floats exactly. *)
let int_key = function
  | Value.Int i ->
      if i >= -0x20_0000_0000_0000 && i <= 0x20_0000_0000_0000 then i
      else float_key (float_of_int i)
  | Value.Float f -> float_key f
  | Value.Bool b -> if b then 1 else 0
  | Value.Null -> max_int
  | Value.Text s -> ( match text_float s with Some f -> float_key f | None -> no_int_key)

(* The string key of a value whose [int_key] is [no_int_key]. *)
let str_key v =
  let num f = if Float.is_nan f then "nan" else Value.hex_float f in
  match v with
  | Value.Text s -> ( match text_float s with Some f -> num f | None -> "T" ^ s)
  | v -> num (Value.to_float v)

type index_key = Int_key of int | Str_key of string

let index_key v =
  match int_key v with k when k = no_int_key -> Str_key (str_key v) | k -> Int_key k

let same_key a b =
  Value.equal a b
  ||
  let k = int_key a in
  k = int_key b && (k <> no_int_key || String.equal (str_key a) (str_key b))

(* [p] with [id] added; [p] itself when it already held [id] or was
   written in place. *)
let posting_with t p id =
  match p with
  | No_posting -> One id
  | One id' when id' = id -> p
  | One id' ->
      let ids = Hashtbl.create 2 in
      Hashtbl.replace ids id' ();
      Hashtbl.replace ids id ();
      Many { p_gen = t.gen; p_ids = ids }
  | Many m when m.p_gen = t.gen ->
      Hashtbl.replace m.p_ids id ();
      p
  | Many m ->
      let ids = Hashtbl.copy m.p_ids in
      Hashtbl.replace ids id ();
      Many { p_gen = t.gen; p_ids = ids }

(* [p] without [id]; [p] itself when it did not hold [id] or was
   written in place. *)
let posting_without t p id =
  match p with
  | No_posting -> p
  | One id' -> if id' = id then No_posting else p
  | Many m ->
      if not (Hashtbl.mem m.p_ids id) then p
      else if Hashtbl.length m.p_ids = 2 then
        One (Hashtbl.fold (fun id' () acc -> if id' = id then acc else id') m.p_ids id)
      else if m.p_gen = t.gen then begin
        Hashtbl.remove m.p_ids id;
        p
      end
      else begin
        let ids = Hashtbl.copy m.p_ids in
        Hashtbl.remove ids id;
        Many { p_gen = t.gen; p_ids = ids }
      end

(* Rebind the key of [v] to [f]'s posting, writing the map only when
   the posting changed. *)
let update_posting t ix v f id =
  let k = int_key v in
  if k <> no_int_key then begin
    let p = Int_map.find ix.ix_ints k in
    match f t p id with
    | p' when p' == p -> ()
    | No_posting -> Int_map.remove ix.ix_ints ~gen:t.gen k
    | p' -> Int_map.replace ix.ix_ints ~gen:t.gen k p'
  end
  else begin
    let k = str_key v in
    let p = Key_map.find ix.ix_strs k in
    match f t p id with
    | p' when p' == p -> ()
    | No_posting -> Key_map.remove ix.ix_strs ~gen:t.gen k
    | p' -> Key_map.replace ix.ix_strs ~gen:t.gen k p'
  end

let posting_add t ix v id = update_posting t ix v posting_with id
let posting_remove t ix v id = update_posting t ix v posting_without id

let find_posting ix v =
  let k = int_key v in
  if k <> no_int_key then Int_map.find ix.ix_ints k
  else Key_map.find ix.ix_strs (str_key v)

let index_add t row id =
  List.iter
    (fun ix ->
      match ix.ix_offset with
      | Some ci when ci < Array.length row -> posting_add t ix row.(ci) id
      | _ -> ())
    t.indexes

let index_remove t row id =
  List.iter
    (fun ix ->
      match ix.ix_offset with
      | Some ci when ci < Array.length row -> posting_remove t ix row.(ci) id
      | _ -> ())
    t.indexes

(* Move [id] from its [before] keys to its [after] keys, leaving the
   postings of unchanged keys untouched. *)
let index_move t before after id =
  List.iter
    (fun ix ->
      match ix.ix_offset with
      | None -> ()
      | Some ci ->
          let b = ci < Array.length before and a = ci < Array.length after in
          if not (b && a && same_key before.(ci) after.(ci)) then begin
            if b then posting_remove t ix before.(ci) id;
            if a then posting_add t ix after.(ci) id
          end)
    t.indexes

(* ------------------------------------------------------------------ *)
(* Hashing                                                              *)
(* ------------------------------------------------------------------ *)

(* A row's digest is FNV-1a over its canonical bytes: the table name,
   then for each cell a ['|'] and its [Value.serialize] form. The bytes
   are streamed into a scratch buffer, integers and text lengths written
   in place, rather than built as a string. One buffer per domain:
   parallel replay mutates tables from several domains at once, and the
   program runs no systhreads that could interleave on one domain. *)
type scratch = { mutable buf : Bytes.t; mutable len : int }

let scratch_key = Domain.DLS.new_key (fun () -> { buf = Bytes.create 256; len = 0 })

let reserve sc n =
  if sc.len + n > Bytes.length sc.buf then begin
    let b = Bytes.create (max (2 * Bytes.length sc.buf) (sc.len + n)) in
    Bytes.blit sc.buf 0 b 0 sc.len;
    sc.buf <- b
  end

(* Unchecked writes at the cursor: each cell reserves room for all of
   its bytes first. *)
let put_char sc c =
  Bytes.unsafe_set sc.buf sc.len c;
  sc.len <- sc.len + 1

let put_string sc str =
  let n = String.length str in
  Bytes.unsafe_blit_string str 0 sc.buf sc.len n;
  sc.len <- sc.len + n

(* The digits [string_of_int] prints, at most 20 bytes on 64-bit.
   Digits are taken from the non-positive side, so [min_int] needs no
   negation. *)
let put_int sc i =
  if i < 0 then put_char sc '-';
  let neg = if i < 0 then i else -i in
  let digits = ref 1 and q = ref (neg / 10) in
  while !q <> 0 do
    incr digits;
    q := !q / 10
  done;
  let q = ref neg in
  for k = sc.len + !digits - 1 downto sc.len do
    Bytes.unsafe_set sc.buf k (Char.unsafe_chr (48 - (!q mod 10)));
    q := !q / 10
  done;
  sc.len <- sc.len + !digits

(* ['|'] and the cell's [Value.serialize] form. *)
let put_cell sc v =
  match v with
  | Value.Null ->
      reserve sc 2;
      put_char sc '|';
      put_char sc 'N'
  | Value.Int i ->
      reserve sc 22;
      put_char sc '|';
      put_char sc 'I';
      put_int sc i
  | Value.Float f ->
      reserve sc (2 + Value.hex_float_max);
      put_char sc '|';
      put_char sc 'F';
      sc.len <- Value.write_hex_float sc.buf sc.len f
  | Value.Bool b ->
      reserve sc 3;
      put_char sc '|';
      put_char sc 'B';
      put_char sc (if b then '1' else '0')
  | Value.Text str ->
      reserve sc (String.length str + 23);
      put_char sc '|';
      put_char sc 'T';
      put_int sc (String.length str);
      put_char sc ':';
      put_string sc str

let row_digest t row =
  let sc = Domain.DLS.get scratch_key in
  let name = t.schema.Schema.tbl_name in
  sc.len <- 0;
  reserve sc (String.length name);
  put_string sc name;
  for c = 0 to Array.length row - 1 do
    put_cell sc (Array.unsafe_get row c)
  done;
  Uv_util.Table_hash.digest_bytes sc.buf sc.len

let neg_delta d = Uv_util.Table_hash.sub_mod 0L d

(* Fold one mutation's hash delta into the table's [pending] and into the
   caller's accumulator, when it passed one. *)
let fold_delta t acc d =
  t.pending <- Uv_util.Table_hash.add_mod t.pending d;
  match acc with Some a -> Uv_util.Table_hash.add_digest a d | None -> ()

(* ------------------------------------------------------------------ *)
(* Slot plumbing                                                        *)
(* ------------------------------------------------------------------ *)

(* Paged int arrays (widths, rowids, order): reads index the page spine
   directly ([paged] takes a spine a scan has read once), writes go
   through [Cow.writable] and skip unchanged entries so they never copy
   a page for nothing. *)
let paged (pages : int array array) i =
  Array.unsafe_get (Array.unsafe_get pages (i lsr page_bits)) (i land page_mask)

let get_int (a : int array Cow.t) i = paged a.Cow.pages i

let set_int t (a : int array Cow.t) i v =
  if get_int a i <> v then
    (Cow.writable a ~gen:t.gen (i lsr page_bits)).(i land page_mask) <- v

let width_at t s = get_int t.widths s
let rowid_at t s = get_int t.rowids s

let cells_at t c s =
  Array.unsafe_get t.cols.(c).Cow.pages (s lsr page_bits)

let pool_at t id =
  Array.unsafe_get
    (Array.unsafe_get t.pool.Cow.pages (id lsr page_bits))
    (id land page_mask)

let cap t = Cow.length t.widths lsl page_bits

let ensure_width t w =
  if w > Array.length t.cols then begin
    let pages = Cow.length t.widths in
    let extra =
      Array.init (w - Array.length t.cols) (fun _ ->
          Cow.init ~gen:t.gen pages dup_cells (fun _ -> fresh_cells ()))
    in
    t.cols <- Array.append t.cols extra
  end

let new_slot t id =
  if t.hi >= cap t then begin
    Cow.push t.widths ~gen:t.gen (Array.make page_size (-1));
    Cow.push t.rowids ~gen:t.gen (Array.make page_size 0);
    Array.iter (fun c -> Cow.push c ~gen:t.gen (fresh_cells ())) t.cols
  end;
  let s = t.hi in
  t.hi <- s + 1;
  set_int t t.rowids s id;
  s

let intern t s =
  let id = Key_map.find t.pool_ids s in
  if id >= 0 then id
  else begin
    let id = t.pool_len in
    if id lsr page_bits = Cow.length t.pool then
      Cow.push t.pool ~gen:t.gen (Array.make page_size "");
    (Cow.writable t.pool ~gen:t.gen (id lsr page_bits)).(id land page_mask) <- s;
    t.pool_len <- id + 1;
    Key_map.replace t.pool_ids ~gen:t.gen s id;
    id
  end

(* Does the cell already hold exactly [v]? Floats compare by bits so
   -0.0 and NaN payloads are rewritten faithfully. *)
let holds t pg o v =
  let tag = Bytes.unsafe_get pg.tags o in
  match v with
  | Value.Null -> tag = tag_null
  | Value.Int i -> tag = tag_int && pg.ints.(o) = i
  | Value.Float f ->
      tag = tag_float
      && Int64.equal (Int64.bits_of_float pg.floats.(o)) (Int64.bits_of_float f)
  | Value.Text str -> tag = tag_text && String.equal (pool_at t pg.ints.(o)) str
  | Value.Bool b -> tag = if b then tag_true else tag_false

let set_cell t c s v =
  let o = s land page_mask in
  if not (holds t (cells_at t c s) o v) then begin
    let pg = Cow.writable t.cols.(c) ~gen:t.gen (s lsr page_bits) in
    match v with
    | Value.Null -> Bytes.unsafe_set pg.tags o tag_null
    | Value.Int i ->
        Bytes.unsafe_set pg.tags o tag_int;
        pg.ints.(o) <- i
    | Value.Float f ->
        if Array.length pg.floats = 0 then
          pg.floats <- Array.make page_size 0.0;
        Bytes.unsafe_set pg.tags o tag_float;
        pg.floats.(o) <- f
    | Value.Text str ->
        Bytes.unsafe_set pg.tags o tag_text;
        pg.ints.(o) <- intern t str
    | Value.Bool b -> Bytes.unsafe_set pg.tags o (if b then tag_true else tag_false)
  end

let write_cells t s row =
  let w = Array.length row in
  ensure_width t w;
  set_int t t.widths s w;
  for c = 0 to w - 1 do
    set_cell t c s row.(c)
  done

let vtrue = Value.Bool true
let vfalse = Value.Bool false

let get_cell t c s =
  let pg = cells_at t c s in
  let o = s land page_mask in
  match Bytes.unsafe_get pg.tags o with
  | '\001' -> Value.Null
  | '\002' -> Value.Int (Array.unsafe_get pg.ints o)
  | '\003' -> Value.Float (Array.unsafe_get pg.floats o)
  | '\004' -> Value.Text (pool_at t (Array.unsafe_get pg.ints o))
  | '\005' -> vtrue
  | '\006' -> vfalse
  | _ -> invalid_arg "Storage: dead cell"

let materialize t s =
  let w = width_at t s in
  Array.init w (fun c -> get_cell t c s)

(* ------------------------------------------------------------------ *)
(* Scan order                                                           *)
(* ------------------------------------------------------------------ *)

let order_len t = t.hi (* one entry per slot *)
let order_at t k = get_int t.order k

(* First position in the order whose slot's rowid is >= [id]. *)
let order_search t id =
  let lo = ref 0 and hi = ref (order_len t) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if rowid_at t (order_at t mid) < id then lo := mid + 1 else hi := mid
  done;
  !lo

(* Record the new slot [s] (already counted in [hi]) at position [k]:
   entries from [k] on shift up by one, so an append costs O(1) and an
   out-of-order insert O(entries after it). *)
let order_insert t k s =
  let last = order_len t - 1 in
  if last lsr page_bits = Cow.length t.order then
    Cow.push t.order ~gen:t.gen (Array.make page_size 0);
  for j = last downto k + 1 do
    set_int t t.order j (order_at t (j - 1))
  done;
  set_int t t.order k s

(* Slot for inserting [id], which has no live slot: a dead slot that
   held [id] is revived in place — the undo of a delete — otherwise a
   new slot goes to its sorted position in the order. *)
let slot_for_insert t id =
  let n = order_len t in
  if n = 0 || id > rowid_at t (order_at t (n - 1)) then begin
    let s = new_slot t id in
    order_insert t n s;
    s
  end
  else
    let k = order_search t id in
    if k < n && rowid_at t (order_at t k) = id then order_at t k
    else begin
      let s = new_slot t id in
      order_insert t k s;
      s
    end

(* ------------------------------------------------------------------ *)
(* Mutations                                                            *)
(* ------------------------------------------------------------------ *)

(* Make [id], which has no live slot, live with [row]. The caller folds
   the hash and adds the index keys. *)
let add_row t id row =
  let s = slot_for_insert t id in
  write_cells t s row;
  Rowid_map.replace t.slots ~gen:t.gen id s;
  t.live <- t.live + 1;
  if id >= t.next_rowid then t.next_rowid <- id + 1

let live_slot t id =
  let s = Rowid_map.find t.slots id in
  if s < 0 then raise Not_found else s

(* Remove live [id]; returns its image. The caller folds the hash. *)
let remove_row t id =
  let s = live_slot t id in
  let row = materialize t s in
  Rowid_map.remove t.slots ~gen:t.gen id;
  set_int t t.widths s (-1);
  t.live <- t.live - 1;
  index_remove t row id;
  row

(* Rewrite live [id] with [row]; returns the before-image. The caller
   folds the hash. *)
let replace_row t id row =
  let s = live_slot t id in
  let before = materialize t s in
  write_cells t s row;
  index_move t before row id;
  before

let replaced_delta t before row =
  Uv_util.Table_hash.add_mod (neg_delta (row_digest t before)) (row_digest t row)

let insert_unlocked ?delta t id row =
  (* over a live rowid the row is replaced, as in [restore_many] *)
  if Rowid_map.find t.slots id >= 0 then
    fold_delta t delta (replaced_delta t (replace_row t id row) row)
  else begin
    add_row t id row;
    fold_delta t delta (row_digest t row);
    index_add t row id
  end

let insert ?delta t row =
  locked t (fun () ->
      let id = t.next_rowid in
      insert_unlocked ?delta t id row;
      id)

let insert_with_rowid ?delta t id row =
  locked t (fun () -> insert_unlocked ?delta t id row)

let insert_at ?delta t id row =
  locked t (fun () ->
      if Rowid_map.mem t.slots id then
        invalid_arg "Storage.insert_at: rowid already in use";
      insert_unlocked ?delta t id row;
      id)

let delete ?delta t id =
  locked t (fun () ->
      let row = remove_row t id in
      fold_delta t delta (neg_delta (row_digest t row));
      row)

let update ?delta t id row =
  locked t (fun () ->
      let before = replace_row t id row in
      fold_delta t delta (replaced_delta t before row);
      before)

let patch ?delta t id f =
  locked t (fun () ->
      let s = live_slot t id in
      let before = materialize t s in
      let row = f before in
      write_cells t s row;
      index_move t before row id;
      fold_delta t delta (replaced_delta t before row);
      (before, row))

(* Whole-statement batches: one lock acquisition and one hash-chain
   update for all rows a statement touches, instead of per-row locking.
   The per-row digests are folded into a statement-local accumulator and
   applied to [pending] once. *)
let update_many ?delta t rows =
  locked t (fun () ->
      let d = ref 0L in
      let before =
        List.rev_map
          (fun (id, row) ->
            let old = replace_row t id row in
            d := Uv_util.Table_hash.add_mod !d (replaced_delta t old row);
            (id, old))
          rows
      in
      fold_delta t delta !d;
      List.rev before)

let delete_many ?delta t ids =
  locked t (fun () ->
      let d = ref 0L in
      let removed =
        List.rev_map
          (fun id ->
            let row = remove_row t id in
            d := Uv_util.Table_hash.add_mod !d (neg_delta (row_digest t row));
            (id, row))
          ids
      in
      fold_delta t delta !d;
      List.rev removed)

let restore_many ?delta t rows =
  locked t (fun () ->
      let d = ref 0L in
      let add x = d := Uv_util.Table_hash.add_mod !d x in
      List.iter
        (fun (id, image) ->
          let live = Rowid_map.find t.slots id >= 0 in
          match image with
          | None -> if live then add (neg_delta (row_digest t (remove_row t id)))
          | Some row when live -> add (replaced_delta t (replace_row t id row) row)
          | Some row ->
              add_row t id row;
              index_add t row id;
              add (row_digest t row))
        rows;
      fold_delta t delta !d)

(* ------------------------------------------------------------------ *)
(* Reads                                                                *)
(* ------------------------------------------------------------------ *)

let get t id =
  reading t (fun () ->
      match Rowid_map.find t.slots id with
      | -1 -> None
      | s -> Some (materialize t s))

let mem t id = reading t (fun () -> Rowid_map.find t.slots id <> -1)

(* fold/iter materialize each live row in ascending rowid order under
   the shared read side. Callbacks must be pure row functions: under the
   writer-priority lock a callback that re-entered this table's lock
   could deadlock against a queued writer. *)
let fold t ~init ~f =
  reading t (fun () ->
      let order = t.order.Cow.pages and widths = t.widths.Cow.pages in
      let acc = ref init in
      for k = 0 to order_len t - 1 do
        let s = paged order k in
        if paged widths s >= 0 then acc := f !acc (rowid_at t s) (materialize t s)
      done;
      !acc)

let iter t f = fold t ~init:() ~f:(fun () id row -> f id row)

(* ------------------------------------------------------------------ *)
(* Typed column access                                                  *)
(* ------------------------------------------------------------------ *)

module Col = struct
  type table = t

  (* [spines] caches each column's page spine and [width] the current
     row's width, both fixed while the scan holds the read lock, so a
     cell read costs one load more than a flat column: the page. *)
  type cur = {
    tbl : table;
    spines : cells array array;
    mutable slot : int;
    mutable width : int;
  }

  let cursor t =
    { tbl = t; spines = Array.map (fun c -> c.Cow.pages) t.cols; slot = 0;
      width = 0 }

  let seek cur s w =
    cur.slot <- s;
    cur.width <- w

  let cur_cells cur c = Array.unsafe_get cur.spines.(c) (cur.slot lsr page_bits)

  let rowid cur = rowid_at cur.tbl cur.slot

  let width cur = cur.width

  let value cur c =
    if c >= cur.width then invalid_arg "index out of bounds"
    else get_cell cur.tbl c cur.slot

  let is_null cur c =
    c >= cur.width
    || Bytes.unsafe_get (cur_cells cur c).tags (cur.slot land page_mask)
       = tag_null

  (* Cell-vs-literal comparison mirroring [Value.compare_sql] without
     materializing the cell for the common same-kind cases. Callers
     handle NULL on either side first. *)
  let cmp_lit cur c lit =
    let pg = cur_cells cur c in
    let o = cur.slot land page_mask in
    match (Bytes.unsafe_get pg.tags o, lit) with
    | '\002', Value.Int j -> compare (Array.unsafe_get pg.ints o) j
    | '\003', Value.Float j -> compare (Array.unsafe_get pg.floats o) j
    | _ -> Value.compare_sql (value cur c) lit

  let equal_lit cur c lit =
    let pg = cur_cells cur c in
    let o = cur.slot land page_mask in
    match (Bytes.unsafe_get pg.tags o, lit) with
    | '\002', Value.Int j -> Array.unsafe_get pg.ints o = j
    (* [compare], not [=]: compare_sql equates nan with nan *)
    | '\003', Value.Float j -> compare (Array.unsafe_get pg.floats o) j = 0
    | '\004', Value.Text str ->
        let cs = pool_at cur.tbl (Array.unsafe_get pg.ints o) in
        String.equal cs str || Value.compare_sql (Value.Text cs) lit = 0
    | _ -> Value.compare_sql (value cur c) lit = 0

  (* Typed readers: [Some v] when the cell currently holds that dynamic
     kind, [None] otherwise (including NULL and out-of-range). *)
  let read_tagged t id c f =
    reading t (fun () ->
        match Rowid_map.find t.slots id with
        | -1 -> None
        | s ->
            if c >= width_at t s then None
            else
              let pg = cells_at t c s in
              f pg (s land page_mask) (Bytes.get pg.tags (s land page_mask)))

  let read_int t id c =
    read_tagged t id c (fun pg o tag ->
        if tag = tag_int then Some pg.ints.(o) else None)

  let read_float t id c =
    read_tagged t id c (fun pg o tag ->
        if tag = tag_float then Some pg.floats.(o) else None)

  let read_text t id c =
    read_tagged t id c (fun pg o tag ->
        if tag = tag_text then Some (pool_at t pg.ints.(o)) else None)

  let read_bool t id c =
    read_tagged t id c (fun _ _ tag ->
        match tag with '\005' -> Some true | '\006' -> Some false | _ -> None)

  (* Typed writer: rewrite one cell, keeping hash and indexes exact. *)
  let write ?delta t id c v =
    locked t (fun () ->
        let s = live_slot t id in
        if c >= width_at t s then invalid_arg "Storage.Col.write: column";
        let before = materialize t s in
        let row = Array.copy before in
        row.(c) <- v;
        set_cell t c s v;
        fold_delta t delta (replaced_delta t before row);
        index_move t before row id)

  (* Filtered scan: runs [pred] over every live slot in ascending rowid
     order and materializes only the matches. [pred] must be a pure row
     predicate — no storage re-entry (the read lock is held). *)
  let select_unlocked t pred =
    let order = t.order.Cow.pages and widths = t.widths.Cow.pages in
    let cur = cursor t in
    let out = ref [] in
    let n = order_len t in
    for p = (n - 1) asr page_bits downto 0 do
      let slots = Array.unsafe_get order p in
      for o = min page_mask (n - 1 - (p lsl page_bits)) downto 0 do
        let s = Array.unsafe_get slots o in
        let w = paged widths s in
        if w >= 0 then begin
          seek cur s w;
          if pred cur then out := (rowid_at t s, materialize t s) :: !out
        end
      done
    done;
    !out

  let select t pred = reading t (fun () -> select_unlocked t pred)

  (* Same, over an explicit candidate rowid list (an index probe). The
     candidates are visited in the order given; unknown rowids skip. *)
  let select_ids t ids pred =
    reading t (fun () ->
        let cur = cursor t in
        List.filter_map
          (fun id ->
            match Rowid_map.find t.slots id with
            | -1 -> None
            | s ->
                seek cur s (width_at t s);
                if pred cur then Some (id, materialize t s) else None)
          ids)
end

let to_rows t = Col.select t (fun _ -> true)

(* ------------------------------------------------------------------ *)
(* Schema changes                                                       *)
(* ------------------------------------------------------------------ *)

let set_schema t schema remap =
  locked t @@ fun () ->
  let updates =
    List.map
      (fun (id, row) -> (id, remap row))
      (Col.select_unlocked t (fun _ -> true))
  in
  t.schema <- schema;
  (* drop indexes on columns that no longer exist, rebuild the rest
     (fresh records so the column offsets are re-resolved against the
     new schema) *)
  let kept =
    List.filter (fun ix -> Schema.column_index schema ix.ix_col <> None) t.indexes
  in
  t.indexes <- List.map (fun ix -> make_index ~gen:t.gen schema ix.ix_col) kept;
  (* rebuild the columnar body from the remapped images *)
  t.cols <-
    Array.init (List.length schema.Schema.tbl_columns) (fun _ ->
        Cow.create dup_cells);
  t.widths <- Cow.create Array.copy;
  t.rowids <- Cow.create Array.copy;
  t.hi <- 0;
  t.live <- 0;
  t.slots <- Rowid_map.create ~gen:t.gen (-1);
  t.order <- Cow.create Array.copy;
  t.hash_base <- 0L;
  t.pending <- 0L;
  let next = t.next_rowid in
  List.iter (fun (id, row) -> insert_unlocked t id row) updates;
  t.next_rowid <- max next t.next_rowid

let create_value_index t col =
  locked t @@ fun () ->
  if not (List.exists (fun ix -> String.equal ix.ix_col col) t.indexes)
  then begin
    let ix = make_index ~gen:t.gen t.schema col in
    t.indexes <- ix :: t.indexes;
    (* populate only the new index: re-adding rows through [index_add]
       would duplicate their entries in every pre-existing index *)
    match ix.ix_offset with
    | None -> ()
    | Some ci ->
        for s = 0 to t.hi - 1 do
          let w = width_at t s in
          if w >= 0 && ci < w then
            posting_add t ix (get_cell t ci s) (rowid_at t s)
        done
  end

let indexed_lookup t col v =
  reading t (fun () ->
      match List.find_opt (fun ix -> String.equal ix.ix_col col) t.indexes with
      | None -> None
      | Some ix ->
          Some
            (match find_posting ix v with
            | No_posting -> []
            | One id -> [ id ]
            | Many m -> Hashtbl.fold (fun id () acc -> id :: acc) m.p_ids []))

let indexed_columns t =
  reading t (fun () -> List.map (fun ix -> ix.ix_col) t.indexes)

let column_index t col = Schema.column_index t.schema col

let memory_bytes t =
  reading t (fun () ->
      let word = Sys.word_size / 8 in
      let per_col acc (c : cells Cow.t) =
        let b = ref acc in
        for p = 0 to Cow.length c - 1 do
          let pg = c.Cow.pages.(p) in
          b :=
            !b + Bytes.length pg.tags
            + (word * (Array.length pg.ints + Array.length pg.floats))
        done;
        !b
      in
      let pool_bytes =
        let b = ref 0 in
        for i = 0 to t.pool_len - 1 do
          b := !b + String.length (pool_at t i) + (3 * word)
        done;
        !b
      in
      256
      + Array.fold_left per_col 0 t.cols
      + (word * 3 * cap t)
      + (word * 4 * Rowid_map.count t.slots)
      + pool_bytes)
