open Uv_sql

type op = Add of Ast.stmt | Remove | Change of Ast.stmt

type target = { tau : int; op : op }

type mode = Col_only | Row_only | Cell | Joint

type info = {
  index : int;
  stmt : Ast.stmt;
  rw : Rwset.rw;
  rows : Rowset.entry_rows;
  app_txn : string option;
}

(* Per-table row-value index over the first RI dimension. *)
type tindex = {
  mutable any_r : int list;
  mutable any_w : int list;
  by_val_r : (string, int list ref) Hashtbl.t;
  by_val_w : (string, int list ref) Hashtbl.t;
}

(* Joint's candidate index. Every entry that can join a closure files
   each row-keyed column it touches, in the slot [postings] uses (its
   readers at [2c], its writers at [2c + 1]), under the first-RI-dimension
   values of its table's combined [dr ∪ dw]: a cell conflict only needs
   some pair of the two accesses' rows to meet, whatever the columns'
   direction. A wildcard, zero-dimension or odd-dimension access files
   as [Rows_any]; [Rows_all] holds every entry filed in the slot.
   Buckets are newest-first. Built at the first Joint question, kept up
   to date by [extend], dropped when an RI merge moves the canonical
   values. *)
type cell_key =
  | Rows_any
  | Rows_all
  | Rows_val of string (* a canonical first-dimension value *)
  | Posting (* a schema key's posting: keys a closure's pruned copy only *)

type cell_index = {
  ci_generation : int;  (* Rowset merge generation of the values *)
  mutable ci_n : int;  (* entries [1 .. ci_n] are filed *)
  ci_buckets : (int * cell_key, int list ref) Hashtbl.t;
}

(* Where entries come from: a pull interface so analysis never needs a
   materialized [Log.t] — an in-memory log and a segmented on-disk
   store are both one-segment-at-a-time folds from here. *)
type source = {
  src_length : unit -> int;
  src_iter : int -> int -> (Uv_db.Log.entry -> unit) -> unit;
      (* [src_iter lo hi f]: apply [f] to entries [lo..hi] in order *)
}

let source_of_log log =
  {
    src_length = (fun () -> Uv_db.Log.length log);
    src_iter =
      (fun lo hi f ->
        for i = lo to hi do
          f (Uv_db.Log.entry log i)
        done);
  }

let source_of_store store =
  {
    src_length = (fun () -> Uv_db.Log_store.length store);
    src_iter =
      (fun lo hi f ->
        Uv_db.Log_store.iter_range store ~lo ~hi (fun index r ->
            f (Uv_db.Log_store.entry_of_record ~index r)));
  }

let source_of_fun ~length fetch =
  {
    src_length = length;
    src_iter =
      (fun lo hi f ->
        for i = lo to hi do
          f (fetch i)
        done);
  }

(* A growable ascending list of entry indexes: [ids.(0 .. len - 1)]. *)
type posting = { mutable ids : int array; mutable len : int }

(* Per-question closure scratch, reused across questions. [mark] and
   [rmark] are epoch-stamped per entry, for the column-wise and the
   row-wise (or Joint) closure: [epoch] for a member of the current
   closure, [-epoch] for an entry kept out of it. [via_col]/[via_row]
   hold a member's parent in that closure, read only for entries whose
   mark is the current epoch. [opened]/[from] stamp
   each posting with the epoch a cursor was opened on it and the lowest
   index it was opened after. Cursor [k] yields
   [cur_ids.(k).(cur_pos.(k) .. cur_stop.(k) - 1)], each of which
   conflicts column-wise with [cur_opener.(k)] (0 = the target); [heap]
   holds the live cursors as packed [(next index, k)] keys. *)
type scratch = {
  mutable mark : int array;
  mutable rmark : int array;
  mutable via_col : int array;
  mutable via_row : int array;
  mutable opened : int array;
  mutable from : int array;
  mutable epoch : int;
  mutable cur_ids : int array array;
  mutable cur_pos : int array;
  mutable cur_stop : int array;
  mutable cur_opener : int array;
  mutable heap : int array;
}

type t = {
  mutable infos : info array;
  config : Rowset.config;
  row_state : Rowset.t;
  sv : Schema_view.t; (* evolving view at the analysed head *)
  source : source;
  base : Uv_db.Catalog.t option;
  base_hashes : (string * int64) list;
  col_ids : (string, int) Hashtbl.t; (* interned Rwset column keys *)
  mutable postings : posting array;
      (* column [c]'s joinable readers at [2c], its writers at [2c + 1] *)
  mutable entry_cols : int array array;
      (* per entry: [| nw; nw written column ids; the read column ids |],
         or [||] for an entry that never joins *)
  table_ids : (string, int) Hashtbl.t; (* interned [table_of_col] names *)
  mutable table_names : string array; (* table id -> name *)
  mutable col_table : int array; (* column id -> its table's id *)
  mutable col_row_keyed : bool array;
      (* column id -> a real column ("table.col", not a schema key):
         writes to it take part in the row-level write-write rule *)
  row_index : (string, tindex) Hashtbl.t;
  groups : (string, int list) Hashtbl.t; (* app_txn tag -> entry indexes *)
  mutable indexed_generation : int;
      (* Rowset merge generation the value buckets were keyed under *)
  mutable joinable : bool array;
      (* per-entry "has a column-wise write", grown by [extend] so no
         closure run pays for it *)
  mutable group_joinable : bool array;
      (* per entry: writes, or has an [app_txn] tag — who may join at
         transaction granularity *)
  mutable cell_index : cell_index option;
  scratch : scratch option Atomic.t;
      (* taken by one closure at a time: concurrent questions (the
         service runs them under a shared read lock) build their own *)
}

let length t = Array.length t.infos

let info t i = t.infos.(i - 1)

let is_schema_key k = String.length k > 3 && String.starts_with ~prefix:"_S." k

let table_of_col c =
  match String.index_opt c '.' with
  | Some i -> String.sub c 0 i
  | None -> c

let grow a len fill =
  let b = Array.make (max 16 (2 * len)) fill in
  Array.blit a 0 b 0 len;
  b

let tables_of_rw (rw : Rwset.rw) =
  let of_set s =
    Rwset.Colset.fold
      (fun key acc ->
        if is_schema_key key then acc
        else
          match String.index_opt key '.' with
          | Some i -> String.sub key 0 i :: acc
          | None -> acc)
      s []
  in
  List.sort_uniq compare (of_set rw.Rwset.r @ of_set rw.Rwset.w)

let dim0_of (config : Rowset.config) table =
  match List.assoc_opt table config.Rowset.ri_columns with
  | Some (d :: _) -> d
  | _ -> "#0"

let bucket tbl key =
  match Hashtbl.find_opt tbl key with
  | Some b -> b
  | None ->
      let b = ref [] in
      Hashtbl.replace tbl key b;
      b

let tindex_for row_index table =
  match Hashtbl.find_opt row_index table with
  | Some ti -> ti
  | None ->
      let ti =
        {
          any_r = [];
          any_w = [];
          by_val_r = Hashtbl.create 64;
          by_val_w = Hashtbl.create 64;
        }
      in
      Hashtbl.replace row_index table ti;
      ti

(* filler for unused slots of [t.postings]; never pushed to *)
let no_posting = { ids = [||]; len = 0 }

let posting_push p i =
  if p.len = Array.length p.ids then begin
    let ids = Array.make (max 16 (2 * p.len)) 0 in
    Array.blit p.ids 0 ids 0 p.len;
    p.ids <- ids
  end;
  p.ids.(p.len) <- i;
  p.len <- p.len + 1

(* The first position of [p] holding an index [>= i]. *)
let posting_lower_bound p i =
  let lo = ref 0 and hi = ref p.len in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if p.ids.(mid) < i then lo := mid + 1 else hi := mid
  done;
  !lo

(* The posting's indexes [>= tau], ascending. *)
let posting_since p tau =
  let acc = ref [] in
  for k = p.len - 1 downto posting_lower_bound p tau do
    acc := p.ids.(k) :: !acc
  done;
  !acc

let intern t c =
  match Hashtbl.find t.col_ids c with
  | id -> id
  | exception Not_found ->
      let id = Hashtbl.length t.col_ids in
      Hashtbl.replace t.col_ids c id;
      if 2 * id = Array.length t.postings then begin
        let grown = Array.make (max 64 (4 * id)) no_posting in
        Array.blit t.postings 0 grown 0 (2 * id);
        t.postings <- grown
      end;
      t.postings.((2 * id) + 1) <- { ids = [||]; len = 0 };
      t.postings.(2 * id) <- { ids = [||]; len = 0 };
      if id = Array.length t.col_table then begin
        t.col_table <- grow t.col_table id 0;
        t.col_row_keyed <- grow t.col_row_keyed id false
      end;
      let table = table_of_col c in
      let tid =
        match Hashtbl.find_opt t.table_ids table with
        | Some tid -> tid
        | None ->
            let tid = Hashtbl.length t.table_ids in
            Hashtbl.replace t.table_ids table tid;
            if tid = Array.length t.table_names then
              t.table_names <- grow t.table_names tid "";
            t.table_names.(tid) <- table;
            tid
      in
      t.col_table.(id) <- tid;
      t.col_row_keyed.(id) <- String.contains c '.' && not (is_schema_key c);
      id

(* The postings of one column key, if any entry touches it. *)
let readers_of t c =
  Option.map (fun id -> t.postings.(2 * id)) (Hashtbl.find_opt t.col_ids c)

let writers_of t c =
  Option.map (fun id -> t.postings.((2 * id) + 1)) (Hashtbl.find_opt t.col_ids c)

(* Index one entry and return its [entry_cols] row. Column postings are
   ascending, so indexing a later entry appends. A reader posting holds
   only entries that can ever join a closure — they write, or carry an
   application transaction tag — and that do not also write the column:
   whoever scans a column's readers scans its writers too, so listing an
   entry in both would only visit it twice. Row-value buckets are kept
   in descending index order so appending is a cons; closures fetch the
   entries at or after τ with [since].
   Row values are canonicalised with the merge state as of this entry;
   [rekey_row_index] folds stale keys forward when later entries merge
   two RI values. *)
let index_info t inf =
  let i = inf.index in
  let push tbl c =
    let b = bucket tbl c in
    b := i :: !b
  in
  let r = inf.rw.Rwset.r and w = inf.rw.Rwset.w in
  let nw = Rwset.Colset.cardinal w in
  let cols =
    if nw = 0 && inf.app_txn = None then [||]
    else begin
      let cols = Array.make (1 + nw + Rwset.Colset.cardinal r) nw in
      let k = ref 1 in
      Rwset.Colset.iter
        (fun c ->
          let id = intern t c in
          cols.(!k) <- id;
          incr k;
          posting_push t.postings.((2 * id) + 1) i)
        w;
      let rec written id j = j <= nw && (cols.(j) = id || written id (j + 1)) in
      Rwset.Colset.iter
        (fun c ->
          let id = intern t c in
          cols.(!k) <- id;
          incr k;
          if not (written id 1) then posting_push t.postings.(2 * id) i)
        r;
      cols
    end
  in
  List.iter
    (fun (table, access) ->
      let ti = tindex_for t.row_index table in
      if Array.length access > 0 then begin
        let dim0 = dim0_of t.config table in
        (match access.(0).Rowset.dr with
        | Rowset.Any -> ti.any_r <- i :: ti.any_r
        | Rowset.Vals s ->
            Rowset.Vset.iter
              (fun v ->
                let cv = Rowset.canonical t.row_state table dim0 v in
                push ti.by_val_r cv)
              s);
        match access.(0).Rowset.dw with
        | Rowset.Any -> ti.any_w <- i :: ti.any_w
        | Rowset.Vals s ->
            Rowset.Vset.iter
              (fun v ->
                let cv = Rowset.canonical t.row_state table dim0 v in
                push ti.by_val_w cv)
              s
      end)
    inf.rows;
  (match inf.app_txn with
  | Some tag ->
      Hashtbl.replace t.groups tag
        (i :: Option.value (Hashtbl.find_opt t.groups tag) ~default:[])
  | None -> ());
  cols

(* Merge two strictly-descending index lists, deduplicating. *)
let merge_desc a b =
  let rec go acc a b =
    match (a, b) with
    | [], rest | rest, [] -> List.rev_append acc rest
    | x :: xs, y :: ys ->
        if x = y then go (x :: acc) xs ys
        else if x > y then go (x :: acc) xs b
        else go (y :: acc) a ys
  in
  go [] a b

(* An RI merge learned by a later entry changes the canonical form of
   previously indexed values: fold every value bucket forward to its
   current root, merging buckets that now share one. Equivalent to the
   full rebuild's final-state canonicalisation because canonicalising a
   past root under the current state reaches the current root. *)
let rekey_buckets t table dim0 (h : (string, int list ref) Hashtbl.t) =
  let moved = Hashtbl.fold (fun v b acc -> (v, b) :: acc) h [] in
  Hashtbl.reset h;
  List.iter
    (fun (v, b) ->
      let cv = Rowset.canonical t.row_state table dim0 v in
      match Hashtbl.find_opt h cv with
      | Some b' -> b' := merge_desc !b' !b
      | None -> Hashtbl.replace h cv b)
    moved

let rekey_row_index t =
  Hashtbl.iter
    (fun table ti ->
      let dim0 = dim0_of t.config table in
      rekey_buckets t table dim0 ti.by_val_r;
      rekey_buckets t table dim0 ti.by_val_w)
    t.row_index

(* The first-RI-dimension rows through which an access to [table] meets
   other accesses' rows: [`No_rows] when the entry has none of the
   table's rows (no cell conflict runs through it), [`Any] when it may
   meet every row — a wildcard, or a zero-dimension or odd-dimension
   access, which [Rowset.overlaps] treats as overlapping — else the
   canonical values of [dr ∪ dw]. *)
let cell_rows t table rows =
  match List.assoc_opt table rows with
  | None -> `No_rows
  | Some access -> (
      let dims =
        match List.assoc_opt table t.config.Rowset.ri_columns with
        | Some ds -> List.length ds
        | None -> 1
      in
      if Array.length access = 0 || Array.length access <> dims then `Any
      else
        match (access.(0).Rowset.dr, access.(0).Rowset.dw) with
        | Rowset.Any, _ | _, Rowset.Any -> `Any
        | Rowset.Vals r, Rowset.Vals w ->
            let dim0 = dim0_of t.config table in
            `Vals
              (Rowset.Vset.fold
                 (fun v acc -> Rowset.canonical t.row_state table dim0 v :: acc)
                 (Rowset.Vset.union r w) []))

(* File entry [i] in the cell index, through its [entry_cols] row: the
   same entries and slots as the column postings. *)
let file_cells t ci i =
  let cols = t.entry_cols.(i - 1) in
  let rows = t.infos.(i - 1).rows in
  let push key =
    let b = bucket ci.ci_buckets key in
    b := i :: !b
  in
  let nw = if Array.length cols = 0 then 0 else cols.(0) in
  let rec written c j = j <= nw && (cols.(j) = c || written c (j + 1)) in
  for k = 1 to Array.length cols - 1 do
    let c = cols.(k) in
    if t.col_row_keyed.(c) && (k <= nw || not (written c 1)) then begin
      let slot = if k <= nw then (2 * c) + 1 else 2 * c in
      match cell_rows t t.table_names.(t.col_table.(c)) rows with
      | `No_rows -> ()
      | `Any ->
          push (slot, Rows_any);
          push (slot, Rows_all)
      | `Vals vs ->
          List.iter (fun cv -> push (slot, Rows_val cv)) vs;
          push (slot, Rows_all)
    end
  done

let create ?(config = Rowset.default_config) ?base source =
  let sv =
    match base with
    | Some cat -> Schema_view.of_catalog cat
    | None -> Schema_view.create ()
  in
  let base_hashes =
    match base with
    | Some cat ->
        List.map
          (fun (name, tbl) -> (name, Uv_db.Storage.hash tbl))
          (Uv_db.Catalog.tables cat)
    | None -> []
  in
  let row_state = Rowset.create config in
  Option.iter (Rowset.seed_aliases row_state) base;
  {
    infos = [||];
    config;
    row_state;
    sv;
    source;
    base;
    base_hashes;
    col_ids = Hashtbl.create 256;
    postings = [||];
    entry_cols = [||];
    table_ids = Hashtbl.create 16;
    table_names = [||];
    col_table = [||];
    col_row_keyed = [||];
    row_index = Hashtbl.create 64;
    groups = Hashtbl.create 256;
    indexed_generation = Rowset.merge_generation row_state;
    joinable = [||];
    group_joinable = [||];
    cell_index = None;
    scratch = Atomic.make None;
  }

let extend ?(obs = Uv_obs.Trace.disabled) t =
  let n = t.source.src_length () in
  let from = Array.length t.infos + 1 in
  if n < from then 0
  else begin
    let batch = ref [] and cols = ref [] in
    Uv_obs.Trace.with_span obs ~cat:"analyze" "analyze.rwsets" (fun () ->
        t.source.src_iter from n (fun e ->
            let rw = Rwset.of_stmt t.sv e.Uv_db.Log.stmt in
            let rows =
              Rowset.of_entry t.row_state t.sv e.Uv_db.Log.stmt
                e.Uv_db.Log.nondet
            in
            Schema_view.apply t.sv e.Uv_db.Log.stmt;
            let inf =
              {
                index = e.Uv_db.Log.index;
                stmt = e.Uv_db.Log.stmt;
                rw;
                rows;
                app_txn = e.Uv_db.Log.app_txn;
              }
            in
            batch := inf :: !batch;
            cols := index_info t inf :: !cols));
    let fresh = Array.of_list (List.rev !batch) in
    t.infos <- Array.append t.infos fresh;
    t.entry_cols <- Array.append t.entry_cols (Array.of_list (List.rev !cols));
    t.joinable <-
      Array.append t.joinable
        (Array.map
           (fun inf -> not (Rwset.Colset.is_empty inf.rw.Rwset.w))
           fresh);
    t.group_joinable <-
      Array.append t.group_joinable
        (Array.map
           (fun inf ->
             inf.app_txn <> None || not (Rwset.Colset.is_empty inf.rw.Rwset.w))
           fresh);
    Uv_obs.Trace.with_span obs ~cat:"analyze" "analyze.index" (fun () ->
        let gen = Rowset.merge_generation t.row_state in
        if gen <> t.indexed_generation then begin
          rekey_row_index t;
          t.indexed_generation <- gen
        end;
        match t.cell_index with
        | Some ci when ci.ci_generation = gen ->
            for i = ci.ci_n + 1 to n do
              file_cells t ci i
            done;
            ci.ci_n <- n
        | Some _ -> t.cell_index <- None
        | None -> ());
    n - from + 1
  end

let of_source ?(config = Rowset.default_config) ?base
    ?(obs = Uv_obs.Trace.disabled) source =
  let t = create ~config ?base source in
  ignore (extend ~obs t);
  t

let analyze ?config ?base ?obs log = of_source ?config ?base ?obs (source_of_log log)

let base_hashes t = t.base_hashes

(* Rebuilt from the analysed statements, so no log access: matches
   [Schema_view.of_log ~upto] — entries strictly before [upto]. *)
let schema_view_at t upto =
  let sv =
    match t.base with
    | Some cat -> Schema_view.of_catalog cat
    | None -> Schema_view.create ()
  in
  let hi = min (upto - 1) (Array.length t.infos) in
  for i = 1 to hi do
    Schema_view.apply sv t.infos.(i - 1).stmt
  done;
  sv

let target_rw t (target : target) =
  (* a new statement's sets are taken against the schema as of τ; the
     row state is the analysed head's — a superset of the aliases
     learned before τ, which can only widen the target's sets *)
  let sets_of stmt =
    let sv = schema_view_at t target.tau in
    (Rwset.of_stmt sv stmt, Rowset.of_entry t.row_state sv stmt [])
  in
  let old_sets () =
    if target.tau >= 1 && target.tau <= Array.length t.infos then
      let inf = t.infos.(target.tau - 1) in
      (inf.rw, inf.rows)
    else (Rwset.empty, [])
  in
  match target.op with
  | Add stmt -> sets_of stmt
  | Remove -> old_sets ()
  | Change stmt ->
      let rw_new, rows_new = sets_of stmt in
      let rw_old, rows_old = old_sets () in
      (Rwset.union rw_new rw_old, Rowset.merge_rows rows_new rows_old)

type provenance = {
  p_col_via : int option;
      (* parent in the column-wise closure: Some 0 = the target's own
         sets; Some v = entry v's sets; Some (-v) = joined as a
         transaction-group mate of entry v *)
  p_row_via : int option; (* ditto, row-wise (or Joint) closure *)
}

type replay_set = {
  member_indexes : int list;
  member_count : int;
  mutated : string list;
  consulted : string list;
  col_only_count : int;
  row_only_count : int;
  provenance : provenance list;
}

(* ------------------------------------------------------------------ *)
(* Closure computation                                                  *)
(* ------------------------------------------------------------------ *)

(* Candidate generator contract shared by the built-in bucket scans and
   external fast-paths (the template matrix): given a member's sets,
   return candidate indexes past [min_idx] that may conflict with it.
   [min_idx] doubles as the member's identity — the seed is the single
   call made before the worklist drains, members call with their own
   index. A generator is built per closure run from τ and [live];
   nothing below τ is ever live, so bucket fetches stop there. *)
type joins_fn = min_idx:int -> Rwset.rw -> Rowset.entry_rows -> int list

(* The entries [>= tau] of a newest-first bucket, oldest first, in front
   of [onto]: what [List.rev_append] of the whole bucket would give once
   the entries below τ are dropped, in O(entries >= tau). *)
let rec since_onto onto tau = function
  | i :: rest when i >= tau -> since_onto (i :: onto) tau rest
  | _ -> onto

let since tau bucket = since_onto [] tau bucket

(* Run [f] with the analyzer's closure scratch, grown to the analysed
   history and advanced to a fresh epoch. A concurrent question finds
   the slot empty and builds its own; the scratch goes back when [f]
   returns (one lost to an exception is rebuilt by the next question).
   Per-entry arrays start at the analysed length and then grow
   geometrically, so a growing history reallocates them O(log n) times,
   not once per question. *)
let with_scratch t f =
  let s =
    match Atomic.exchange t.scratch None with
    | Some s -> s
    | None ->
        {
          mark = [||];
          rmark = [||];
          via_col = [||];
          via_row = [||];
          opened = [||];
          from = [||];
          epoch = 0;
          cur_ids = [||];
          cur_pos = [||];
          cur_stop = [||];
          cur_opener = [||];
          heap = [||];
        }
  in
  let n = Array.length t.infos and np = 2 * Hashtbl.length t.col_ids in
  if Array.length s.mark < n then begin
    let size = max 64 (if s.mark = [||] then n else 2 * n) in
    s.mark <- Array.make size 0;
    s.rmark <- Array.make size 0;
    s.via_col <- Array.make size 0;
    s.via_row <- Array.make size 0
  end;
  if Array.length s.opened < np then begin
    s.opened <- Array.make (max np 64) 0;
    s.from <- Array.make (max np 64) 0
  end;
  s.epoch <- s.epoch + 1;
  let r = f s in
  Atomic.set t.scratch (Some s);
  r

(* The worklist closure (row-wise, Joint, and a column-wise generator
   handed in from outside). [joins ~tau ~live] builds the candidate
   generator; candidates for which [live] is false (already joined,
   excluded, before τ, or never joinable) may be skipped and pruned
   from the generator's state, so buckets shrink as the closure grows.
   [joinable] is the analyzer's per-entry array for the granularity:
   read-only queries never join (Prop E.7) unless they belong to a
   transaction group, whose read is an application-level data flow into
   the rest of its transaction (Table A's BEGIN TRANSACTION union rule).
   Membership is stamped into [mark] with [s.epoch] and each member's
   parent into [via] (0 = the target, [-v] = a group mate of [v]).
   Returns the members in join order. *)
let worklist ?(obs = Uv_obs.Trace.disabled) t s ~mark ~via ~tau ~exclude
    ~seed_rw ~seed_rows ~joins ~joinable ~expand =
  let n = Array.length t.infos and epoch = s.epoch in
  List.iter (fun i -> if i >= 1 && i <= n then mark.(i - 1) <- -epoch) exclude;
  let live i =
    i >= tau && i <= n
    && joinable.(i - 1)
    &&
    let m = mark.(i - 1) in
    m <> epoch && m <> -epoch
  in
  let queue = Queue.create () and joined = ref [] in
  let add src i =
    mark.(i - 1) <- epoch;
    via.(i - 1) <- src;
    joined := i :: !joined;
    Queue.push i queue
  in
  let join src i =
    if live i then begin
      add src i;
      List.iter (fun g -> if live g then add (-i) g) (expand i)
    end
  in
  let joins_of = joins ~tau ~live in
  (* seed from the target's sets (pseudo-member just before τ) *)
  List.iter (join 0) (joins_of ~min_idx:(tau - 1) seed_rw seed_rows);
  while not (Queue.is_empty queue) do
    let i = Queue.pop queue in
    let inf = t.infos.(i - 1) in
    List.iter (join i) (joins_of ~min_idx:i inf.rw inf.rows)
  done;
  Uv_obs.Trace.incr obs ~by:(List.length !joined) "analyze.closure_iters";
  !joined

(* Shared pruning cache for one closure run: each bucket is copied on
   first use and re-filtered on every scan, dropping entries that can
   never join again ([live] is monotone towards false). Offered
   candidates are the live entries past [min_idx]; live entries at or
   before [min_idx] are kept for members seeded with a lower bound. *)
let scan_pruned cache ~live ~min_idx ~offer key fetch =
  let entries =
    match Hashtbl.find_opt cache key with Some l -> l | None -> fetch ()
  in
  let kept =
    List.filter
      (fun i ->
        if live i then begin
          if i > min_idx then offer i;
          true
        end
        else false)
      entries
  in
  Hashtbl.replace cache key kept

(* A generator's offers, deduplicated and ascending, counted into
   [visits] and kept when [verify] accepts the pair. *)
let verified ~visits offers verify =
  let candidates = List.sort_uniq Int.compare offers in
  visits := !visits + List.length candidates;
  List.filter verify candidates

(* Heap keys pack a cursor's next index above its cursor number, so
   keys compare as plain ints and equal indexes order by cursor number —
   the order the cursors were opened in. *)
let cursor_bits = 24

let cursor_mask = (1 lsl cursor_bits) - 1

let rec sift_up h k =
  if k > 0 then begin
    let parent = (k - 1) / 2 in
    let x = h.(k) in
    if x < h.(parent) then begin
      h.(k) <- h.(parent);
      h.(parent) <- x;
      sift_up h parent
    end
  end

let rec sift_down h len k =
  let l = (2 * k) + 1 in
  if l < len then begin
    let m = if l + 1 < len && h.(l + 1) < h.(l) then l + 1 else l in
    let x = h.(k) in
    if h.(m) < x then begin
      h.(k) <- h.(m);
      h.(m) <- x;
      sift_down h len m
    end
  end

(* The column-wise closure as one ascending sweep over column postings.
   A member (or the seed, just before τ) taints its columns: a written
   column opens cursors on its readers and writers, a read column on its
   writers, each starting just past the member. A posting is opened once
   per question unless a member below its opening point taints it —
   only a group mate joining out of order does, and a second cursor from
   there is sound because every cursor entry conflicts with the member
   that opened it. The heap merges the cursors into ascending index
   order; a live candidate joins. So the cost is the postings of
   tainted columns after their taint time, and ungrouped members join in
   ascending order.
   Provenance: each member's parent ([s.via_col]) is the smallest cursor
   opener that yields it — the earliest member (or the target, 0) it
   conflicts with column-wise — or, failing any, the group mate it
   joined with. Returns the members in join order; [s.mark] stamps them
   with [s.epoch]. *)
let col_sweep ?(obs = Uv_obs.Trace.disabled) t s ~tau ~exclude ~seed_rw
    ~joinable ~expand =
  let n = Array.length t.infos in
  let epoch = s.epoch and mark = s.mark and via = s.via_col in
  List.iter (fun i -> if i >= 1 && i <= n then mark.(i - 1) <- -epoch) exclude;
  let live i =
    i >= tau && i <= n
    && joinable.(i - 1)
    &&
    let m = mark.(i - 1) in
    m <> epoch && m <> -epoch
  in
  let len = ref 0 and cursors = ref 0 in
  (* open posting [p] for entries past [after] *)
  let open_posting p ~opener ~after =
    if s.opened.(p) <> epoch || s.from.(p) > after then begin
      s.opened.(p) <- epoch;
      s.from.(p) <- after;
      let post = t.postings.(p) in
      let pos = posting_lower_bound post (after + 1) in
      if pos < post.len then begin
        let k = !cursors in
        if k > cursor_mask then failwith "Analyzer: too many closure cursors";
        if k = Array.length s.cur_pos then begin
          s.cur_ids <- grow s.cur_ids k [||];
          s.cur_pos <- grow s.cur_pos k 0;
          s.cur_stop <- grow s.cur_stop k 0;
          s.cur_opener <- grow s.cur_opener k 0
        end;
        s.cur_ids.(k) <- post.ids;
        s.cur_pos.(k) <- pos;
        s.cur_stop.(k) <- post.len;
        s.cur_opener.(k) <- opener;
        incr cursors;
        if !len = Array.length s.heap then s.heap <- grow s.heap !len 0;
        s.heap.(!len) <- (post.ids.(pos) lsl cursor_bits) lor k;
        incr len;
        sift_up s.heap (!len - 1)
      end
    end
  in
  (* [cols] in the [entry_cols] layout *)
  let taint ~opener ~after cols =
    let nw = cols.(0) in
    for k = 1 to Array.length cols - 1 do
      let c = cols.(k) in
      if k <= nw then open_posting (2 * c) ~opener ~after;
      open_posting ((2 * c) + 1) ~opener ~after
    done
  in
  let joined = ref [] in
  let add src i =
    mark.(i - 1) <- epoch;
    joined := i :: !joined;
    via.(i - 1) <- src;
    taint ~opener:i ~after:i t.entry_cols.(i - 1)
  in
  let join src i =
    add src i;
    List.iter (fun g -> if live g then add (-i) g) (expand i)
  in
  (* the seed: a pseudo-member just before τ; a column no entry touches
     has no posting to open *)
  let ids_of cols =
    Rwset.Colset.fold
      (fun c acc ->
        match Hashtbl.find_opt t.col_ids c with
        | Some id -> id :: acc
        | None -> acc)
      cols []
  in
  let seed_writes = ids_of seed_rw.Rwset.w in
  taint ~opener:0 ~after:(tau - 1)
    (Array.of_list
       ((List.length seed_writes :: seed_writes) @ ids_of seed_rw.Rwset.r));
  let visits = ref 0 in
  while !len > 0 do
    let top = s.heap.(0) in
    let i = top lsr cursor_bits and k = top land cursor_mask in
    let o = s.cur_opener.(k) in
    incr visits;
    let pos = s.cur_pos.(k) + 1 in
    if pos = s.cur_stop.(k) then begin
      decr len;
      s.heap.(0) <- s.heap.(!len)
    end
    else begin
      s.cur_pos.(k) <- pos;
      s.heap.(0) <- (s.cur_ids.(k).(pos) lsl cursor_bits) lor k
    end;
    sift_down s.heap !len 0;
    if live i then join o i
    else if mark.(i - 1) = epoch then begin
      (* already a member: keep the smallest opener, which beats a
         group-mate parent *)
      let p = via.(i - 1) in
      if p < 0 || o < p then via.(i - 1) <- o
    end
  done;
  Uv_obs.Trace.incr obs ~by:(List.length !joined) "analyze.closure_iters";
  Uv_obs.Trace.incr obs ~by:!visits "analyze.closure_col_visits";
  !joined

(* The joint (cell-wise) pair conflict: the two entries share a column
   (direction-aware) whose table's rows overlap — i.e., they touch a
   common cell, up to the first-dimension approximation that
   [Rowset.overlaps] verifies multi-dimensionally. Schema-key overlap is
   a wildcard conflict as ever. *)
let cell_pair_conflict t (rw : Rwset.rw) rows (inf : info) =
  let inter a b = Rwset.Colset.inter a b in
  let nonempty s = not (Rwset.Colset.is_empty s) in
  let schema_conflict =
    let sk s = Rwset.Colset.filter is_schema_key s in
    nonempty (inter (sk rw.Rwset.w) (sk inf.rw.Rwset.r))
    || nonempty (inter (sk rw.Rwset.r) (sk inf.rw.Rwset.w))
    || nonempty (inter (sk rw.Rwset.w) (sk inf.rw.Rwset.w))
  in
  schema_conflict
  ||
  let shared =
    Rwset.Colset.union
      (inter rw.Rwset.w inf.rw.Rwset.r)
      (Rwset.Colset.union
         (inter rw.Rwset.w inf.rw.Rwset.w)
         (inter rw.Rwset.r inf.rw.Rwset.w))
  in
  Rwset.Colset.exists
    (fun c ->
      (not (is_schema_key c))
      &&
      let table = table_of_col c in
      match (List.assoc_opt table rows, List.assoc_opt table inf.rows) with
      | Some mine, Some theirs ->
          Rowset.overlaps t.row_state table mine `Any_conflict theirs
      (* a table absent from an entry's row sets is unreachable through
         the row-wise closure, so it cannot carry a cell conflict either
         — the same convention keeps Joint inside Cell *)
      | _ -> false)
    shared

(* The row-wise pair conflict: a schema-key conflict (wildcard rows per
   Table B), or some table whose row sets overlap multi-dimensionally. *)
let row_conflict t (rw : Rwset.rw) rows (inf : info) =
  let inter a b = not (Rwset.Colset.is_empty (Rwset.Colset.inter a b)) in
  let schema_conflict =
    let sk s = Rwset.Colset.filter is_schema_key s in
    inter (sk rw.Rwset.w) (sk inf.rw.Rwset.r)
    || inter (sk rw.Rwset.r) (sk inf.rw.Rwset.w)
    || inter (sk rw.Rwset.w) (sk inf.rw.Rwset.w)
  in
  schema_conflict
  || List.exists
       (fun (table, access) ->
         match List.assoc_opt table inf.rows with
         | None -> false
         | Some their ->
             Rowset.overlaps t.row_state table access `Any_conflict their)
       rows

(* Row-wise candidates: value-indexed over each table's first dimension,
   verified with the full multi-dimensional overlap; plus schema-key
   ([_S.*]) conflicts, which are wildcard rows per Table B. *)
let row_joins t ~visits ~tau ~live =
  let cache : (string, int list) Hashtbl.t = Hashtbl.create 256 in
  fun ~min_idx (rw : Rwset.rw) (rows : Rowset.entry_rows) ->
    let acc = ref [] in
    let offer i = acc := i :: !acc in
    let scan key fetch = scan_pruned cache ~live ~min_idx ~offer key fetch in
    (* _S pseudo-rows: wildcard, so any column-level _S conflict is a row
       conflict too *)
    let scan_schema kind postings_of c =
      if is_schema_key c then
        scan (kind ^ c) (fun () ->
            match postings_of t c with
            | None -> []
            | Some p -> posting_since p tau)
    in
    Rwset.Colset.iter
      (fun c ->
        scan_schema "Sr|" readers_of c;
        scan_schema "Sw|" writers_of c)
      rw.Rwset.w;
    Rwset.Colset.iter (fun c -> scan_schema "Sw|" writers_of c) rw.Rwset.r;
    (* table rows *)
    List.iter
      (fun (table, access) ->
        match Hashtbl.find_opt t.row_index table with
        | None -> ()
        | Some ti ->
            if Array.length access > 0 then begin
              let dim0 = dim0_of t.config table in
              let candidates_of rs kind (any_bucket : int list)
                  (val_buckets : (string, int list ref) Hashtbl.t) =
                let any_key = "A" ^ kind ^ table in
                match rs with
                | Rowset.Any ->
                    scan any_key (fun () -> since tau any_bucket);
                    (* all value buckets of this table, flattened once *)
                    scan
                      ("*" ^ kind ^ table)
                      (fun () ->
                        Hashtbl.fold
                          (fun _ b acc -> since_onto acc tau !b)
                          val_buckets [])
                | Rowset.Vals s ->
                    scan any_key (fun () -> since tau any_bucket);
                    Rowset.Vset.iter
                      (fun v ->
                        let cv = Rowset.canonical t.row_state table dim0 v in
                        scan
                          ("V" ^ kind ^ table ^ "|" ^ cv)
                          (fun () ->
                            match Hashtbl.find_opt val_buckets cv with
                            | Some b -> since tau !b
                            | None -> []))
                      s
              in
              (* my writes vs their reads and writes *)
              candidates_of access.(0).Rowset.dw "r|" ti.any_r ti.by_val_r;
              candidates_of access.(0).Rowset.dw "w|" ti.any_w ti.by_val_w;
              (* my reads vs their writes *)
              candidates_of access.(0).Rowset.dr "w|" ti.any_w ti.by_val_w
            end)
      rows;
    verified ~visits !acc (fun i -> row_conflict t rw rows t.infos.(i - 1))

(* The cell index, filed up to the analysed length under the current
   merge generation: built here at the first Joint question (concurrent
   first questions may each build one; the last published wins), then
   kept up to date by [extend]. *)
let cell_index_of t =
  let gen = Rowset.merge_generation t.row_state in
  match t.cell_index with
  | Some ci when ci.ci_generation = gen && ci.ci_n = Array.length t.infos -> ci
  | _ ->
      let ci =
        {
          ci_generation = gen;
          ci_n = Array.length t.infos;
          ci_buckets = Hashtbl.create 1024;
        }
      in
      for i = 1 to ci.ci_n do
        file_cells t ci i
      done;
      t.cell_index <- Some ci;
      ci

(* Joint candidates from the cell index: for each row-keyed column the
   asker writes, the readers and writers filed under the rows it may
   meet; for each it reads, the writers. Every pair [cell_pair_conflict]
   accepts is offered: both sides file a column under its table's
   [dr ∪ dw] values, a wildcard asker scans every filed entry, and any
   asker scans the wildcard bucket. Schema keys scan their postings. *)
let cell_index_joins t ci ~visits ~tau ~live =
  let cache : (int * cell_key, int list) Hashtbl.t = Hashtbl.create 64 in
  fun ~min_idx (rw : Rwset.rw) (rows : Rowset.entry_rows) ->
    let acc = ref [] in
    let offer i = acc := i :: !acc in
    let scan key =
      scan_pruned cache ~live ~min_idx ~offer key (fun () ->
          match key with
          | slot, Posting -> posting_since t.postings.(slot) tau
          | _ -> (
              match Hashtbl.find_opt ci.ci_buckets key with
              | Some b -> since tau !b
              | None -> []))
    in
    (* the asker's rows per table, computed once per call *)
    let asked = ref [] in
    let rows_of tid =
      match List.assoc_opt tid !asked with
      | Some r -> r
      | None ->
          let r = cell_rows t t.table_names.(tid) rows in
          asked := (tid, r) :: !asked;
          r
    in
    let scan_slot c slot =
      if t.col_row_keyed.(c) then
        match rows_of t.col_table.(c) with
        | `No_rows -> ()
        | `Any -> scan (slot, Rows_all)
        | `Vals vs ->
            scan (slot, Rows_any);
            List.iter (fun cv -> scan (slot, Rows_val cv)) vs
      else scan (slot, Posting)
    in
    let each cols f =
      Rwset.Colset.iter
        (fun c -> Option.iter f (Hashtbl.find_opt t.col_ids c))
        cols
    in
    each rw.Rwset.w (fun c ->
        scan_slot c (2 * c);
        scan_slot c ((2 * c) + 1));
    each rw.Rwset.r (fun c -> scan_slot c ((2 * c) + 1));
    verified ~visits !acc (fun i -> cell_pair_conflict t rw rows t.infos.(i - 1))

let group_expand t i =
  match t.infos.(i - 1).app_txn with
  | None -> []
  | Some tag -> Option.value (Hashtbl.find_opt t.groups tag) ~default:[]

let classify t ~joined seed_rw =
  let add_tables_of rwsets =
    let real_of s =
      Rwset.Colset.fold
        (fun key acc ->
          if is_schema_key key then
            (* mutated schema object: the object itself must be restored *)
            String.sub key 3 (String.length key - 3) :: acc
          else
            match String.index_opt key '.' with
            | Some i -> String.sub key 0 i :: acc
            | None -> acc)
        s []
    in
    real_of rwsets
  in
  let written = ref [] and read = ref [] in
  let take (rw : Rwset.rw) =
    written := add_tables_of rw.Rwset.w @ !written;
    read := add_tables_of rw.Rwset.r @ !read
  in
  take seed_rw;
  List.iter (fun i -> take t.infos.(i - 1).rw) joined;
  let mutated = List.sort_uniq compare !written in
  let consulted =
    List.filter (fun x -> not (List.mem x mutated)) (List.sort_uniq compare !read)
  in
  (mutated, consulted)

(* a removed query is never re-executed, so its reads need no consulted
   reconstruction: only its writes seed the closure *)
let strip_removed_reads (seed_rw, seed_rows) =
  ( { seed_rw with Rwset.r = Rwset.Colset.empty },
    List.map
      (fun (table, access) ->
        ( table,
          Array.map
            (fun (d : Rowset.dim_access) ->
              { d with Rowset.dr = Rowset.Vals Rowset.Vset.empty })
            access ))
      seed_rows )

let target_group_indexes t tau =
  if tau >= 1 && tau <= Array.length t.infos then
    match t.infos.(tau - 1).app_txn with
    | Some tag -> Option.value (Hashtbl.find_opt t.groups tag) ~default:[ tau ]
    | None -> [ tau ]
  else [ tau ]

let replay_set ?(obs = Uv_obs.Trace.disabled) ?(mode = Cell) ?(grouped = false)
    ?col_joins t (target : target) =
  let seed_rw, seed_rows = target_rw t target in
  (* at transaction granularity the retroactive target is the whole
     application-level transaction: seed with the union of its entries'
     sets, and keep all of them out of the replay set *)
  let group_indexes =
    if grouped then target_group_indexes t target.tau else [ target.tau ]
  in
  let seed_rw, seed_rows =
    if grouped then
      List.fold_left
        (fun (rw, rows) i ->
          let inf = t.infos.(i - 1) in
          (Rwset.union rw inf.rw, Rowset.merge_rows rows inf.rows))
        (seed_rw, seed_rows) group_indexes
    else (seed_rw, seed_rows)
  in
  let exclude =
    match target.op with
    | Remove | Change _ -> group_indexes
    | Add _ -> []
  in
  let seed_rw, seed_rows =
    match target.op with
    | Remove -> strip_removed_reads (seed_rw, seed_rows)
    | Add _ | Change _ -> (seed_rw, seed_rows)
  in
  let joinable = if grouped then t.group_joinable else t.joinable in
  let expand = if grouped then group_expand t else fun _ -> [] in
  let tau = target.tau in
  with_scratch t @@ fun s ->
  let run ~mark ~via joins =
    worklist ~obs t s ~mark ~via ~tau ~exclude ~seed_rw ~seed_rows ~joins
      ~joinable ~expand
  in
  let span name f = Uv_obs.Trace.with_span obs ~cat:"analyze" name f in
  let col_members () =
    span "closure.col" (fun () ->
        match col_joins with
        | Some joins -> run ~mark:s.mark ~via:s.via_col joins
        | None -> col_sweep ~obs t s ~tau ~exclude ~seed_rw ~joinable ~expand)
  in
  (* the row-wise closure, or Joint's over the cell conflict *)
  let row_members name joins =
    span name (fun () ->
        let visits = ref 0 in
        let joined = run ~mark:s.rmark ~via:s.via_row (joins ~visits) in
        Uv_obs.Trace.incr obs ~by:!visits "analyze.closure_row_visits";
        joined)
  in
  let joined, col_count, row_count =
    match mode with
    | Col_only ->
        let j = col_members () in
        (j, List.length j, -1)
    | Row_only ->
        let j = row_members "closure.row" (row_joins t) in
        (j, -1, List.length j)
    | Cell ->
        (* Theorem E.20: the row closure's joins that the column closure
           also reached *)
        let jc = col_members () in
        let jr = row_members "closure.row" (row_joins t) in
        ( List.filter (fun i -> s.mark.(i - 1) = s.epoch) jr,
          List.length jc,
          List.length jr )
    | Joint ->
        let ci = cell_index_of t in
        (row_members "closure.cell" (cell_index_joins t ci), -1, -1)
  in
  let member_indexes = List.sort Int.compare joined in
  let parent ran via i = if ran then Some via.(i - 1) else None in
  let has_col = mode = Col_only || mode = Cell and has_row = mode <> Col_only in
  let provenance =
    List.map
      (fun i ->
        {
          p_col_via = parent has_col s.via_col i;
          p_row_via = parent has_row s.via_row i;
        })
      member_indexes
  in
  let mutated, consulted = classify t ~joined seed_rw in
  {
    member_indexes;
    member_count = List.length joined;
    mutated;
    consulted;
    col_only_count = col_count;
    row_only_count = row_count;
    provenance;
  }

let canonical_row_value t ~table v =
  Rowset.canonical t.row_state table (dim0_of t.config table)
    (Value.serialize v)

let row_merge_generation t = Rowset.merge_generation t.row_state

(* ------------------------------------------------------------------ *)
(* Provenance: why did each member join?                                *)
(* ------------------------------------------------------------------ *)

let shared_columns (a : Rwset.rw) (b : Rwset.rw) =
  let inter x y = Rwset.Colset.elements (Rwset.Colset.inter x y) in
  List.sort_uniq compare
    (inter a.Rwset.w b.Rwset.r @ inter a.Rwset.r b.Rwset.w
    @ inter a.Rwset.w b.Rwset.w)

let shared_tables t (a : Rowset.entry_rows) (b : Rowset.entry_rows) =
  List.filter_map
    (fun (table, access) ->
      match List.assoc_opt table b with
      | None -> None
      | Some their ->
          if Rowset.overlaps t.row_state table access `Any_conflict their then
            let values =
              if Array.length access = 0 || Array.length their = 0 then []
              else
                let vals_of (d : Rowset.dim_access) =
                  match (d.Rowset.dr, d.Rowset.dw) with
                  | Rowset.Any, _ | _, Rowset.Any -> None
                  | Rowset.Vals r, Rowset.Vals w ->
                      Some (Rowset.Vset.union r w)
                in
                match (vals_of access.(0), vals_of their.(0)) with
                | Some mine, Some theirs ->
                    Rowset.Vset.elements (Rowset.Vset.inter mine theirs)
                | _ -> [ "*" ]
            in
            Some (table, values)
          else None)
    a

let conflict_columns t i j = shared_columns t.infos.(i - 1).rw t.infos.(j - 1).rw

let conflict_tables t i j =
  shared_tables t t.infos.(i - 1).rows t.infos.(j - 1).rows

let explain_report t (target : target) rs =
  let seed_rw, seed_rows = target_rw t target in
  let rw_of v = if v = 0 then seed_rw else t.infos.(v - 1).rw in
  let rows_of v = if v = 0 then seed_rows else t.infos.(v - 1).rows in
  let name v = if v = 0 then "the target" else Printf.sprintf "#%d" v in
  List.map2
    (fun i p ->
      let inf = t.infos.(i - 1) in
      let describe = function
        | None -> []
        | Some v when v < 0 -> [ Printf.sprintf "group-mate of #%d" (-v) ]
        | Some v ->
            let cols = shared_columns (rw_of v) inf.rw in
            let tabs = shared_tables t (rows_of v) inf.rows in
            let col_part =
              if cols = [] then []
              else
                [
                  Printf.sprintf "columns {%s} with %s"
                    (String.concat ", " cols) (name v);
                ]
            in
            let row_part =
              if tabs = [] then []
              else
                [
                  Printf.sprintf "rows {%s} with %s"
                    (String.concat ", "
                       (List.map
                          (fun (tbl, vs) ->
                            if vs = [] then tbl
                            else tbl ^ "=" ^ String.concat "|" vs)
                          tabs))
                    (name v);
                ]
            in
            col_part @ row_part
      in
      let reasons =
        List.sort_uniq compare (describe p.p_col_via @ describe p.p_row_via)
      in
      let reasons = if reasons = [] then [ "seeded" ] else reasons in
      Printf.sprintf "#%d %s <- %s" i
        (Uv_sql.Ast.stmt_kind inf.stmt)
        (String.concat "; " reasons))
    rs.member_indexes rs.provenance

(* ------------------------------------------------------------------ *)
(* The replay DAG                                                       *)
(* ------------------------------------------------------------------ *)

module Itbl = Hashtbl.Make (Int)

(* Accessors scanned per (column, token) before a closing edge. *)
let scan_limit = 64

(* Entry [i]'s row in the [entry_cols] layout. An entry that never joins
   a closure has none: it only reads, and a column that no indexed entry
   interned has no writer, so reading it orders nothing. *)
let cols_of t i =
  let row = t.entry_cols.(i - 1) in
  if Array.length row > 0 then row
  else
    Array.of_list
      (0
      :: Rwset.Colset.fold
           (fun c acc ->
             match Hashtbl.find_opt t.col_ids c with
             | Some id -> id :: acc
             | None -> acc)
           t.infos.(i - 1).rw.Rwset.r [])

(* One ascending pass over the members. Per column, accesses are
   bucketed by first-RI-dimension token ("*" for any row, id 0), so
   row-disjoint chains stay parallel (the source of TPC-C's and SEATS'
   replay parallelism, §4.4). Tokens are interned per call, never into
   the analyzer: questions run concurrently under a shared read lock. *)
let replay_dag ?(obs = Uv_obs.Trace.disabled) t ~members =
  Uv_obs.Trace.with_span obs ~cat:"analyze" "cluster" @@ fun () ->
  let nodes = Array.of_list members in
  let n = Array.length nodes in
  let ncols = Hashtbl.length t.col_ids in
  let ntables = Hashtbl.length t.table_ids in
  let tok_ids = Hashtbl.create 64 in
  Hashtbl.replace tok_ids "*" 0;
  let tok_of s =
    match Hashtbl.find_opt tok_ids s with
    | Some id -> id
    | None ->
        let id = Hashtbl.length tok_ids in
        Hashtbl.replace tok_ids s id;
        id
  in
  (* a member's tokens for one (table, side), canonicalised once; two
     values aliasing one root stay two tokens, as each is one access *)
  let tok_stamp = Array.make (2 * ntables) (-1) in
  let tok_memo = Array.make (2 * ntables) [||] in
  let tokens p (inf : info) tid ~write =
    let slot = (2 * tid) + Bool.to_int write in
    if tok_stamp.(slot) <> p then begin
      tok_stamp.(slot) <- p;
      let table = t.table_names.(tid) in
      tok_memo.(slot) <-
        (match List.assoc_opt table inf.rows with
        | Some access when Array.length access > 0 -> (
            match
              if write then access.(0).Rowset.dw else access.(0).Rowset.dr
            with
            | Rowset.Any -> [| 0 |]
            | Rowset.Vals s ->
                let dim0 = dim0_of t.config table in
                Array.of_list
                  (Rowset.Vset.fold
                     (fun v acc ->
                       tok_of (Rowset.canonical t.row_state table dim0 v) :: acc)
                     s []))
        | _ -> [| 0 |])
    end;
    tok_memo.(slot)
  in
  (* the current member's distinct predecessors *)
  let seen = Array.make n (-1) in
  let out = ref (Array.make 16 0) and nout = ref 0 in
  let emit p q =
    if seen.(q) <> p then begin
      seen.(q) <- p;
      if !nout = Array.length !out then out := grow !out !nout 0;
      !out.(!nout) <- q;
      incr nout
    end
  in
  (* Cell rule. A bucket lists its accessors in push order as
     [(position lsl 1) lor wrote]. A write orders after every accessor
     back to, and including, the previous writer; a read after the
     previous writer only. Past [scan_limit] accessors one closing edge
     stands in for the rest (wave layering is transitive). *)
  let cells : posting Itbl.t = Itbl.create 256 in
  let col_cells = Array.make ncols [] in
  let rec scan p b ~write k pos =
    if pos >= 0 then begin
      let e = b.ids.(pos) in
      let q = e lsr 1 and q_wrote = e land 1 = 1 in
      if q = p then scan p b ~write k (pos - 1)
      else if k >= scan_limit then emit p q
      else if write then begin
        emit p q;
        if not q_wrote then scan p b ~write (k + 1) (pos - 1)
      end
      else if q_wrote then emit p q
      else scan p b ~write (k + 1) (pos - 1)
    end
  in
  let consider p b ~write = scan p b ~write 0 (b.len - 1) in
  let touch p inf c ~write =
    Array.iter
      (fun v ->
        let key = (v * ncols) + c in
        let own = Itbl.find_opt cells key in
        (* a wildcard meets every bucket of the column; a value its own
           bucket and the wildcard one (key [c]) *)
        if v = 0 then List.iter (fun b -> consider p b ~write) col_cells.(c)
        else begin
          Option.iter (fun b -> consider p b ~write) own;
          Option.iter (fun b -> consider p b ~write) (Itbl.find_opt cells c)
        end;
        let b =
          match own with
          | Some b -> b
          | None ->
              let b = { ids = [||]; len = 0 } in
              Itbl.replace cells key b;
              col_cells.(c) <- b :: col_cells.(c);
              b
        in
        (* keep a long bucket to its newest [scan_limit] accessors *)
        if b.len > 2 * scan_limit then begin
          Array.blit b.ids (b.len - scan_limit) b.ids 0 scan_limit;
          b.len <- scan_limit
        end;
        posting_push b ((p lsl 1) lor Bool.to_int write))
      (tokens p inf t.col_table.(c) ~write)
  in
  (* Row-level write-write rule, per (table, token) whatever the columns:
     [Storage.update] replaces whole rows, so two members writing
     different columns of one row must keep commit order when run in
     parallel. Chains collapse to last-writer edges. *)
  let last_writer = Itbl.create 64 in
  let table_toks = Array.make ntables [] in
  let ww_stamp = Array.make ntables (-1) in
  let write_rows p inf tid =
    let edge_to v =
      match Itbl.find_opt last_writer ((v * ntables) + tid) with
      | Some q when q <> p -> emit p q
      | _ -> ()
    in
    let set v =
      let key = (v * ntables) + tid in
      if not (Itbl.mem last_writer key) then
        table_toks.(tid) <- v :: table_toks.(tid);
      Itbl.replace last_writer key p
    in
    let toks = tokens p inf tid ~write:true in
    Array.iter
      (fun v ->
        if v = 0 then List.iter edge_to table_toks.(tid)
        else begin
          edge_to v;
          edge_to 0
        end)
      toks;
    (* a wildcard write becomes the last writer of every row *)
    Array.iter
      (fun v ->
        if v = 0 then List.iter set table_toks.(tid);
        set v)
      toks
  in
  let preds = Array.make n [||] in
  for p = 0 to n - 1 do
    let i = nodes.(p) in
    let inf = t.infos.(i - 1) in
    let cols = cols_of t i in
    let nw = cols.(0) in
    nout := 0;
    (* reads before writes, so a member reading and writing one cell
       pushes its read first *)
    for k = nw + 1 to Array.length cols - 1 do
      touch p inf cols.(k) ~write:false
    done;
    for k = 1 to nw do
      touch p inf cols.(k) ~write:true
    done;
    for k = 1 to nw do
      let c = cols.(k) in
      let tid = t.col_table.(c) in
      if t.col_row_keyed.(c) && ww_stamp.(tid) <> p then begin
        ww_stamp.(tid) <- p;
        write_rows p inf tid
      end
    done;
    preds.(p) <- Array.sub !out 0 !nout
  done;
  let dag = Conflict_dag.of_preds ~nodes preds in
  Uv_obs.Trace.incr obs ~by:(Conflict_dag.edge_count dag) "replay.edges";
  dag

let to_dot t ~members =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph replay {\n  rankdir=BT;\n  node [shape=box, fontsize=10];\n";
  List.iter
    (fun i ->
      let label =
        let sql = Uv_sql.Printer.stmt_compact t.infos.(i - 1).stmt in
        let sql =
          if String.length sql > 48 then String.sub sql 0 45 ^ "..." else sql
        in
        String.concat "\\\"" (String.split_on_char '"' sql)
      in
      Buffer.add_string buf
        (Printf.sprintf "  q%d [label=\"Q%d: %s\"];\n" i i label))
    members;
  List.iter
    (fun (later, earlier) ->
      Buffer.add_string buf (Printf.sprintf "  q%d -> q%d;\n" later earlier))
    (Conflict_dag.edges (replay_dag t ~members));
  Buffer.add_string buf "}\n";
  Buffer.contents buf
