open Uv_sql

type op = Add of Ast.stmt | Remove | Change of Ast.stmt

type target = { tau : int; op : op }

type mode = Col_only | Row_only | Cell

type info = {
  index : int;
  shape : Ast.stmt;
  text : string option;
  rw : Rwset.rw;
  rows : Rowset.entry_rows;
  app_txn : string option;
}

let stmt inf = match inf.text with None -> inf.shape | Some sql -> Parser.parse_stmt sql

(* Where entries come from: a pull interface so analysis never needs a
   materialized [Log.t] — an in-memory log and a segmented on-disk
   store are both one-segment-at-a-time folds from here. A store hands
   each entry as [Scanned]: its shape named and its literals bound from
   its bytes, with no statement built; the pass reads its literals by
   position, its tag only when it keeps the groups, and builds its
   statement only where the schema view needs it. *)
type item =
  | Entry of { template : int; entry : Uv_db.Log.entry }
  | Scanned of {
      template : int;
      shape : Ast.stmt;
      lits : Stmt_memo.lits;
      log : Uv_db.Log_io.decoded;
      at : int;
    }

type source = {
  src_length : unit -> int;
  src_iter : int -> int -> (item -> unit) -> unit;
      (* [src_iter lo hi f]: apply [f] to entries [lo..hi] in order *)
}

let source_of_fun ~length fetch =
  {
    src_length = length;
    src_iter =
      (fun lo hi f ->
        for i = lo to hi do
          f (Entry { template = -1; entry = fetch i })
        done);
  }

let source_of_log log =
  source_of_fun ~length:(fun () -> Uv_db.Log.length log) (Uv_db.Log.entry log)

let source_of_store store =
  let memo = Stmt_memo.create () in
  {
    src_length = (fun () -> Uv_db.Log_store.length store);
    src_iter =
      (fun lo hi f ->
        Uv_db.Log_store.iter_decoded store ~lo ~hi (fun _ log at ->
            let off = Uv_db.Log_io.sql_offset log at in
            let template =
              if off >= 0 then
                Stmt_memo.template memo (Uv_db.Log_io.text log) off
                  (Uv_db.Log_io.sql_length log at)
              else
                let sql = Uv_db.Log_io.sql log at in
                Stmt_memo.template memo sql 0 (String.length sql)
            in
            let shape, lits =
              if template >= 0 then (Stmt_memo.template_stmt memo template, Stmt_memo.lits memo)
              else
                let stmt = Stmt_memo.parse memo (Uv_db.Log_io.sql log at) in
                (stmt, Stmt_memo.lits_of_stmt stmt)
            in
            f (Scanned { template; shape; lits; log; at })));
  }

(* A growable int list, [ids.(0 .. len - 1)]: in every index, ascending
   entry indexes. *)
type posting = { mutable ids : int array; mutable len : int }

(* One table's row keys: a row key stands for a (table, canonical
   first-RI-dimension value) pair; key 0 is the wildcard, any row. *)
type table_rows = {
  dim0 : string; (* the first RI dimension *)
  one_dim : bool;
      (* configured with at most one RI dimension: its accesses have one,
         so rows that share a first-dimension key overlap *)
  key_of : (string, int) Hashtbl.t; (* canonical value -> row key *)
  wild : posting array; (* wildcard accesses, laid out as [row_postings] *)
  all : posting array;
      (* every access, wildcard or keyed, laid out as [row_postings]:
         what a wildcard access meets *)
}

(* Per-question closure scratch, reused across questions. [mark] and
   [rmark] are epoch-stamped per entry, for the column-wise and the
   row-wise closure: [epoch] for a member of the current
   closure, [-epoch] for an entry kept out of it. [via_col]/[via_row]
   hold a member's parent in that closure, read only for entries whose
   mark is the current epoch (the column-wise closure stamps only
   grouped members, see [col_fixpoint]). [opened]/[from] stamp each
   column slot of [col_shapes] with the epoch it was tainted on and the
   index it was tainted after; [sh_opened] stamps each shape id the
   column-wise closure reached, with its opener in [sh_via] and its
   opening point in [sh_from]. [r_opened]/[r_from] stamp each slot of
   the row sweep ([row_sweep]), whose listed slots keep their openers in
   [r_openers]; [checked] caches a verdict per opener for the index the sweep
   decides, numbered [batch] (never reused while the scratch lives).
   Cursor [k] yields [cur_ids.(k).(cur_pos.(k) .. cur_stop.(k) - 1)] and
   carries the tag [cur_tag.(k)] its sweep gave it; [heap] holds the
   [n_heap] live cursors of the [n_cur] opened as packed
   [(next index, k)] keys, or the column-wise closure's opening points. *)
type scratch = {
  mutable mark : int array;
  mutable rmark : int array;
  mutable via_col : int array;
  mutable via_row : int array;
  mutable opened : int array;
  mutable from : int array;
  mutable sh_opened : int array;
  mutable sh_from : int array;
  mutable sh_via : int array;
  mutable r_opened : int array;
  mutable r_from : int array;
  mutable r_openers : posting array;
  mutable checked : int array;
  mutable batch : int;
  mutable epoch : int;
  mutable cur_ids : int array array;
  mutable cur_pos : int array;
  mutable cur_stop : int array;
  mutable cur_tag : int array;
  mutable n_cur : int;
  mutable heap : int array;
  mutable n_heap : int;
  cells : Conflict_dag.Cells.t; (* the replay DAG's ([replay_dag]) *)
}

(* One statement shape's column-wise sets and row-set plan under the
   schema generation the memo holds, and its [entry_cols] row and id,
   given at the first entry of the shape that can join a closure ([||]
   and [-1] until then). None is ever written after that, so every entry
   of the shape shares them. [s_entries] lists the shape's joinable
   entries, ascending. [s_state]: an entry of the shape changes what
   later entries derive — it may change the schema view or teach the RI
   state an alias or a merge — so a pass runs it even below its bound. *)
type shape_sets = {
  s_rw : Rwset.rw Lazy.t; (* forced at the shape's first entry derived in full *)
  s_plan : Rowset.plan;
  s_state : bool;
  mutable s_cols : int array;
  mutable s_id : int;
  mutable s_schema : bool;
      (* DDL, or a write of a schema key: set with [s_cols] *)
  mutable s_tables : (string list * string list) option;
      (* [named_tables] of the write and the read set, derived at the
         first question that reads them ([classify]); concurrent
         questions may derive them twice, with equal values *)
  s_entries : posting;
}

type row_cells = {
  tid : int;
  column : int -> int;
  dim0 : int;
  pk : int list;
  uniques : int list;
  key : Uv_sql.Value.t array -> int;
}

type table_facts = {
  tf_schema : Uv_sql.Schema.table;
  tf_layout : row_cells;
  tf_guard : (int * bool) list;
  tf_triggered : bool;
}

type catalog_facts = {
  cf_epoch : int;
  cf_triggered : string list;
  cf_tables : table_facts option array;
      (* by table id, filled on first use; concurrent questions may fill
         a slot twice, with equal values *)
}

type t = {
  mutable infos : info array;
      (* per entry, sized ahead of [n]; [no_info] below [lo] *)
  mutable n : int; (* entries covered: the source's length when last read *)
  lo : int Atomic.t;
      (* the lowest entry derived in full, or [max_int] before the first
         pass: every reader of an entry below it derives again *)
  tier : bool Atomic.t;
      (* the read-only tier: passes derive the read-only entries after
         their bound and keep the transaction groups, which only a
         grouped question reads (Prop. E.7); raised at the first one and
         never lowered *)
  lock : Mutex.t; (* held while a pass derives *)
  mutable pristine : bool; (* no pass has touched the derived state *)
  obs : Uv_obs.Trace.t; (* [of_source]'s, for passes a reader starts *)
  config : Rowset.config;
  mutable row_state : Rowset.t;
  mutable sv : Schema_view.t; (* evolving view at the analysed head *)
  mutable views : (int * Schema_view.t) list;
      (* one view per earlier schema generation, newest first: [(i, v)]
         holds before entries [i ..] up to the next generation's *)
  mutable head_from : int; (* [sv] holds before entries [head_from ..] *)
  source : source;
  base : Uv_db.Catalog.t option;
  base_hashes : (string * int64) list;
  mutable col_ids : (string, int) Hashtbl.t; (* interned Rwset column keys *)
  mutable shape_count : int; (* shape ids handed out, every generation's *)
  mutable shape_of_id : shape_sets array; (* shape id -> its shape *)
  mutable col_shapes : shape_sets list array;
      (* column [c]'s shapes, newest first: every shape touching it at
         [2c], the shapes writing it at [2c + 1] *)
  mutable entry_shape : int array;
      (* per entry: its shape's id, or -1 for an entry that never joins *)
  mutable table_ids : (string, int) Hashtbl.t; (* interned [table_of_col] names *)
  mutable table_names : string array; (* table id -> name *)
  mutable col_table : int array; (* column id -> its table's id *)
  mutable col_row_keyed : bool array;
      (* column id -> a real column ("table.col", not a schema key):
         writes to it take part in the row-level write-write rule *)
  mutable col_schema : bool array; (* column id -> a schema key ([_S.*]) *)
  mutable table_rows : table_rows array; (* table id -> its row keys *)
  mutable row_postings : posting array;
      (* row key [k]'s joinable accesses, four postings: readers at [4k]
         and writers at [4k + 2] among the entries that write columns,
         then the read-only entries' at [4k + 1] and [4k + 3] (which
         join only at group granularity) *)
  mutable row_keys : int; (* row keys handed out, the wildcard included *)
  mutable entry_rows : int array array;
      (* per entry: a run [| header; nr read keys; nw written keys |] per
         table whose access has a first dimension (see [row_runs]) *)
  runs_buf : posting; (* the passes' buffer for [row_runs] *)
  mutable groups : (string, int list ref) Hashtbl.t;
      (* app_txn tag -> entry indexes, descending, below [lo] too; empty
         until the tier is raised *)
  mutable last_group : (string * int list ref) option;
      (* the group the last tagged entry joined: a transaction's entries
         are mostly adjacent, so most entries skip hashing their tag *)
  mutable shapes : shape_sets Shape.Tbl.t;
      (* the passes' memo: statement shape -> its sets under [sv] at
         generation [shapes_generation] *)
  mutable shapes_generation : int;
  mutable guard_ids : int array list array;
      (* table id -> its unkeyed guards' interned column ids, as the
         last pass left the head's schema *)
  mutable by_template : shape_sets option array;
      (* the memo's entries by the source's template id ([Scanned]),
         emptied with the memo *)
  scratch : scratch option Atomic.t;
      (* taken by one closure at a time: concurrent questions (the
         service runs them under a shared read lock) build their own *)
  cells_memo : (Uv_sql.Schema.table * row_cells) list Atomic.t;
      (* [row_cells] by schema record, shared by concurrent questions;
         emptied by every pass, which may intern new columns *)
  facts : catalog_facts option Atomic.t;
      (* [catalog_facts] of the last catalog epoch asked, shared like
         [cells_memo] and emptied with it *)
}

let length t = t.n

let is_schema_key k = String.length k > 3 && String.starts_with ~prefix:"_S." k

let table_of_col c =
  match String.index_opt c '.' with
  | Some i -> String.sub c 0 i
  | None -> c

let grow a len fill =
  let b = Array.make (max 4 (2 * len)) fill in
  Array.blit a 0 b 0 len;
  b

(* The real tables of a column set's qualified columns, onto [acc]. *)
let real_tables s acc =
  Rwset.Colset.fold
    (fun key acc ->
      if is_schema_key key || not (String.contains key '.') then acc
      else table_of_col key :: acc)
    s acc

let write_tables (rw : Rwset.rw) =
  List.sort_uniq compare (real_tables rw.Rwset.w [])

(* The tables a column set names, sorted: each qualified column's, and
   the object each schema key stands for (a mutated object must itself
   be restored). *)
let named_tables s =
  List.sort_uniq compare
    (Rwset.Colset.fold
       (fun key acc ->
         if is_schema_key key then String.sub key 3 (String.length key - 3) :: acc
         else if String.contains key '.' then table_of_col key :: acc
         else acc)
       s [])

let dim0_of config table = Rowset.dim_name config table 0

(* filler for the slots of [t.row_postings] nothing was posted to yet;
   never pushed to *)
let no_posting = { ids = [||]; len = 0 }

let posting_push p i =
  if p.len = Array.length p.ids then p.ids <- grow p.ids p.len 0;
  p.ids.(p.len) <- i;
  p.len <- p.len + 1

(* The posting's last index, 0 when it is empty. *)
let posting_last p = if p.len = 0 then 0 else p.ids.(p.len - 1)

(* The first position of [p] holding an index [>= i]. *)
let posting_lower_bound p i =
  let lo = ref 0 and hi = ref p.len in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if p.ids.(mid) < i then lo := mid + 1 else hi := mid
  done;
  !lo

let fresh_posting () = { ids = [||]; len = 0 }

let fresh_table_rows ~dim0 ~one_dim =
  {
    dim0;
    one_dim;
    key_of = Hashtbl.create 16;
    wild = Array.init 4 (fun _ -> fresh_posting ());
    all = Array.init 4 (fun _ -> fresh_posting ());
  }

let intern_table t table =
  match Hashtbl.find_opt t.table_ids table with
  | Some tid -> tid
  | None ->
      let tid = Hashtbl.length t.table_ids in
      Hashtbl.replace t.table_ids table tid;
      if tid = Array.length t.table_names then begin
        t.table_names <- grow t.table_names tid "";
        t.table_rows <-
          grow t.table_rows tid (fresh_table_rows ~dim0:"" ~one_dim:true)
      end;
      t.table_names.(tid) <- table;
      t.table_rows.(tid) <-
        fresh_table_rows ~dim0:(dim0_of t.config table)
          ~one_dim:
            (match List.assoc_opt table t.config.Rowset.ri_columns with
            | Some (_ :: _ :: _) -> false
            | _ -> true);
      tid

let intern t c =
  match Hashtbl.find t.col_ids c with
  | id -> id
  | exception Not_found ->
      let id = Hashtbl.length t.col_ids in
      Hashtbl.replace t.col_ids c id;
      if 2 * id = Array.length t.col_shapes then
        t.col_shapes <- grow t.col_shapes (2 * id) [];
      if id = Array.length t.col_table then begin
        t.col_table <- grow t.col_table id 0;
        t.col_row_keyed <- grow t.col_row_keyed id false;
        t.col_schema <- grow t.col_schema id false
      end;
      t.col_table.(id) <- intern_table t (table_of_col c);
      t.col_row_keyed.(id) <- String.contains c '.' && not (is_schema_key c);
      t.col_schema.(id) <- is_schema_key c;
      id

(* The row key of a canonical value of table [tid], interned. *)
let intern_row t tid cv =
  let tr = t.table_rows.(tid) in
  match Hashtbl.find_opt tr.key_of cv with
  | Some k -> k
  | None ->
      let k = t.row_keys in
      t.row_keys <- k + 1;
      Hashtbl.replace tr.key_of cv k;
      while (4 * k) + 3 >= Array.length t.row_postings do
        t.row_postings <-
          grow t.row_postings (Array.length t.row_postings) no_posting
      done;
      k

(* The [entry_cols] row of column sets [rw]: [| nw; the nw written
   column ids; the read column ids |], interned writes first. *)
let cols_row t (rw : Rwset.rw) =
  let nw = Rwset.Colset.cardinal rw.Rwset.w in
  let cols = Array.make (1 + nw + Rwset.Colset.cardinal rw.Rwset.r) nw in
  let k = ref 1 in
  let put c =
    cols.(!k) <- intern t c;
    incr k
  in
  Rwset.Colset.iter put rw.Rwset.w;
  Rwset.Colset.iter put rw.Rwset.r;
  cols

(* Does a row of the [entry_cols] layout write a schema key? Only then
   can [schema_conflict] hold. *)
let writes_schema t cols =
  let rec go k = k <= cols.(0) && (t.col_schema.(cols.(k)) || go (k + 1)) in
  Array.length cols > 0 && go 1

(* Intern shape [sh]'s [entry_cols] row, give it the next shape id and
   list it in [col_shapes] under each column it touches. *)
let register_shape t sh =
  let cols = cols_row t (Lazy.force sh.s_rw) in
  sh.s_cols <- cols;
  sh.s_schema <- sh.s_schema || writes_schema t cols;
  sh.s_id <- t.shape_count;
  if sh.s_id = Array.length t.shape_of_id then
    t.shape_of_id <- grow t.shape_of_id sh.s_id sh;
  t.shape_of_id.(sh.s_id) <- sh;
  t.shape_count <- t.shape_count + 1;
  let file slot =
    match t.col_shapes.(slot) with
    | last :: _ when last == sh -> ()
    | l -> t.col_shapes.(slot) <- sh :: l
  in
  for k = 1 to Array.length cols - 1 do
    file (2 * cols.(k));
    if k <= cols.(0) then file ((2 * cols.(k)) + 1)
  done

(* Index entry [i] under its shape [sh]'s id. Only entries that can
   ever join a closure — they write, or carry an application transaction
   tag — are indexed: once, on their shape's posting, which is
   ascending, so a later entry appends. *)
let index_info t i inf sh =
  t.entry_shape.(i - 1) <-
    (if Rwset.Colset.is_empty inf.rw.Rwset.w && inf.app_txn = None then -1
     else begin
       if sh.s_cols = [||] then register_shape t sh;
       posting_push sh.s_entries i;
       sh.s_id
     end)

(* Entry [i]'s [entry_cols] row: its shape's [s_cols], or [||] for an
   entry that never joins. *)
let entry_cols t i =
  let id = t.entry_shape.(i - 1) in
  if id < 0 then [||] else t.shape_of_id.(id).s_cols

(* File entry [i] under its application transaction tag, if any. *)
let add_group t i = function
  | None -> ()
  | Some tag ->
      let mates =
        match t.last_group with
        | Some (last, mates) when String.equal last tag -> mates
        | _ ->
            let mates =
              match Hashtbl.find_opt t.groups tag with
              | Some mates -> mates
              | None ->
                  let mates = ref [] in
                  Hashtbl.add t.groups tag mates;
                  mates
            in
            t.last_group <- Some (tag, mates);
            mates
      in
      mates := i :: !mates

(* The indexes of the group tagged [tag], descending. *)
let group t tag = Option.fold ~none:[] ~some:( ! ) (Hashtbl.find_opt t.groups tag)

(* A run's header packs its table id above its read and written key
   counts. *)
let count_bits = 21

let count_mask = (1 lsl count_bits) - 1

(* Push one side's row keys onto [b]: the single key 0 for a wildcard,
   else one key per first-dimension value, canonicalised under the
   current merge state — two values merged into one root give its key
   twice, as each is one access. Returns their count. *)
let push_keys t b ~key tid = function
  | Rowset.Any ->
      posting_push b 0;
      1
  | Rowset.Vals s ->
      let from = b.len and table = t.table_names.(tid) in
      let dim0 = t.table_rows.(tid).dim0 in
      Rowset.Vset.iter
        (fun v ->
          posting_push b (key tid (Rowset.canonical t.row_state table dim0 v)))
        s;
      if b.len - from > count_mask then
        failwith "Analyzer: too many row values in one access";
      b.len - from

(* Row sets as row-key runs, built in [b]: [| header; nr read keys; nw
   written keys |] per table whose access has a first dimension.
   [table_id] and [key] intern or look up ([table_id] gives [-1] for a
   table no entry touches, which meets nothing indexed). *)
let row_runs t b ~table_id ~key rows =
  b.len <- 0;
  List.iter
    (fun (table, access) ->
      let tid = table_id table in
      if tid >= 0 && Array.length access > 0 then begin
        let run = b.len in
        posting_push b 0;
        let nr = push_keys t b ~key tid access.(0).Rowset.dr in
        let nw = push_keys t b ~key tid access.(0).Rowset.dw in
        b.ids.(run) <- (((tid lsl count_bits) lor nr) lsl count_bits) lor nw
      end)
    rows;
  Array.sub b.ids 0 b.len

(* [f tid p nr nw] per run of [runs]: the run at [p] holds its [nr] read
   keys from [p + 1], then its [nw] written keys. *)
let iter_runs runs f =
  let p = ref 0 in
  while !p < Array.length runs do
    let h = runs.(!p) in
    let nr = (h lsr count_bits) land count_mask and nw = h land count_mask in
    f (h lsr (2 * count_bits)) !p nr nw;
    p := !p + 1 + nr + nw
  done

(* The slot of an entry not derived in full: below [lo], or left
   underived ([deferred]). *)
let no_info =
  { index = 0; shape = Ast.Transaction []; text = None; rw = Rwset.empty; rows = [];
    app_txn = None }

(* Entry [i], at or above [lo], is one a pass without the tier left
   underived: a read-only entry, which joins no ungrouped closure. *)
let deferred t i = t.infos.(i - 1) == no_info

(* Key entry [i]'s rows into [entry_rows] and, if it can ever join a
   closure, post it under each key (a wildcard side under its table's
   wildcard posting), and each non-empty side under its table's [all]:
   writes, then reads unless the same key's (or [wild]'s, [all]'s)
   writers already hold [i] — whoever meets a key's readers also meets
   its writers. Postings are ascending, so a later entry appends. A
   deferred entry has no rows and no key. *)
let key_rows t i =
  let runs =
    if deferred t i then [||]
    else
      row_runs t t.runs_buf ~table_id:(intern_table t) ~key:(intern_row t)
        t.infos.(i - 1).rows
  in
  t.entry_rows.(i - 1) <- runs;
  let cols = entry_cols t i in
  if Array.length cols > 0 then begin
    (* posting [2 * side + read_only] of a key's four *)
    let ro = Bool.to_int (cols.(0) = 0) in
    iter_runs runs (fun tid p nr nw ->
        let tr = t.table_rows.(tid) in
        let post side first n =
          let at = (2 * side) + ro and writers = 2 + ro in
          if n > 0 && not (side = 0 && posting_last tr.all.(writers) = i) then
            posting_push tr.all.(at) i;
          if n = 1 && runs.(first) = 0 then begin
            if not (side = 0 && posting_last tr.wild.(writers) = i) then
              posting_push tr.wild.(at) i
          end
          else
            for j = first to first + n - 1 do
              let k = 4 * runs.(j) in
              if
                not (side = 0 && posting_last t.row_postings.(k + writers) = i)
              then begin
                if t.row_postings.(k + at) == no_posting then
                  t.row_postings.(k + at) <- fresh_posting ();
                let b = t.row_postings.(k + at) in
                if posting_last b <> i then posting_push b i
              end
            done
        in
        post 1 (p + 1 + nr) nw;
        post 0 (p + 1) nr)
  end

(* Re-derive the row keys of entries [lo .. last], after an RI merge
   moved canonical values. *)
let rekey_rows t ~lo ~last =
  for tid = 0 to Hashtbl.length t.table_ids - 1 do
    let tr = t.table_rows.(tid) in
    t.table_rows.(tid) <- fresh_table_rows ~dim0:tr.dim0 ~one_dim:tr.one_dim
  done;
  t.row_postings <- [||];
  t.row_keys <- 1;
  for i = lo to last do
    key_rows t i
  done

let create ~config ~obs ?base source =
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
    n = source.src_length ();
    lo = Atomic.make max_int;
    tier = Atomic.make false;
    lock = Mutex.create ();
    pristine = true;
    obs;
    config;
    row_state;
    sv;
    views = [];
    head_from = 1;
    source;
    base;
    base_hashes;
    col_ids = Hashtbl.create 256;
    shape_count = 0;
    shape_of_id = [||];
    col_shapes = [||];
    entry_shape = [||];
    table_ids = Hashtbl.create 16;
    table_names = [||];
    col_table = [||];
    col_row_keyed = [||];
    col_schema = [||];
    table_rows = [||];
    row_postings = [||];
    row_keys = 1;
    entry_rows = [||];
    runs_buf = fresh_posting ();
    groups = Hashtbl.create 256;
    last_group = None;
    shapes = Shape.Tbl.create 64;
    shapes_generation = Schema_view.generation sv;
    guard_ids = [||];
    by_template = [||];
    scratch = Atomic.make None;
    cells_memo = Atomic.make [];
    facts = Atomic.make None;
  }

(* Empty every derived structure, as a fresh [create] has them. The
   per-entry arrays are kept: a pass only lowers [lo], and every slot
   below the old [lo] is still empty. *)
let reset t =
  let f = create ~config:t.config ~obs:t.obs ?base:t.base t.source in
  t.row_state <- f.row_state;
  t.sv <- f.sv;
  t.views <- f.views;
  t.head_from <- f.head_from;
  t.col_ids <- f.col_ids;
  t.shape_count <- f.shape_count;
  t.shape_of_id <- f.shape_of_id;
  t.col_shapes <- f.col_shapes;
  t.table_ids <- f.table_ids;
  t.table_names <- f.table_names;
  t.col_table <- f.col_table;
  t.col_row_keyed <- f.col_row_keyed;
  t.col_schema <- f.col_schema;
  t.table_rows <- f.table_rows;
  t.row_postings <- f.row_postings;
  t.row_keys <- f.row_keys;
  t.groups <- f.groups;
  t.last_group <- None;
  t.shapes <- f.shapes;
  t.shapes_generation <- f.shapes_generation;
  t.guard_ids <- f.guard_ids;
  t.by_template <- f.by_template;
  t.pristine <- true;
  Atomic.set t.cells_memo [];
  Atomic.set t.facts None

(* Room for [n] entries in the per-entry arrays: exactly [n] for the
   first pass, doubling after that, so a growing history copies them
   O(log n) times. *)
let reserve t n =
  let cap = Array.length t.infos in
  if cap < n then begin
    let size = if cap = 0 then n else max n (2 * cap) in
    let resize a fill =
      let b = Array.make size fill in
      Array.blit a 0 b 0 cap;
      b
    in
    t.infos <- resize t.infos no_info;
    t.entry_shape <- resize t.entry_shape (-1);
    t.entry_rows <- resize t.entry_rows [||]
  end

(* The sets and row-set plan of [stmt]'s shape under the schema view as
   it stands: a memo hit, or planned and memoised. A schema change
   empties the memo. The column sets are derived at the shape's first
   entry derived in full ([shape_rw]). *)
let shape_sets t stmt =
  let gen = Schema_view.generation t.sv in
  if gen <> t.shapes_generation then begin
    Shape.Tbl.reset t.shapes;
    t.by_template <- [||];
    t.shapes_generation <- gen
  end;
  match Shape.Tbl.find_opt t.shapes stmt with
  | Some sh -> sh
  | None ->
      let plan = Rowset.plan t.row_state t.sv stmt in
      let sv = t.sv in
      let sh =
        {
          s_rw = lazy (Rwset.of_stmt sv stmt);
          s_plan = plan;
          s_state = Schema_view.affects stmt || Rowset.teaches plan;
          s_cols = [||];
          s_id = -1;
          s_schema = Ast.is_ddl stmt;
          s_tables = None;
          s_entries = fresh_posting ();
        }
      in
      Shape.Tbl.replace t.shapes stmt sh;
      sh

(* [shape_sets] of a [Scanned] entry of template [template] (-1: none):
   the memo's entry, found once per template. *)
let template_sets t template shape =
  if Schema_view.generation t.sv = t.shapes_generation
     && template >= 0
     && template < Array.length t.by_template
  then
    match t.by_template.(template) with
    | Some sh -> sh
    | None ->
        let sh = shape_sets t shape in
        t.by_template.(template) <- Some sh;
        sh
  else begin
    let sh = shape_sets t shape in
    if template >= 0 then begin
      let size = Array.length t.by_template in
      if template >= size then
        t.by_template <-
          Array.init (max (template + 1) (2 * size)) (fun k ->
              if k < size then t.by_template.(k) else None);
      t.by_template.(template) <- Some sh
    end;
    sh
  end

(* The shape's column sets, derived (counted in [derived]) at its first
   entry derived in full, before the entry applies to the view. *)
let shape_rw ~derived sh =
  if not (Lazy.is_val sh.s_rw) then incr derived;
  Lazy.force sh.s_rw

(* Apply entry [i]'s statement, of a shape [Schema_view.affects], to
   the head view; when it starts a new schema generation, keep the view
   it ends. *)
let apply_schema t i stmt =
  let before = Schema_view.copy t.sv and gen = Schema_view.generation t.sv in
  Schema_view.apply t.sv stmt;
  if Schema_view.generation t.sv <> gen then begin
    t.views <- (t.head_from, before) :: t.views;
    t.head_from <- i + 1
  end

(* The PRIMARY KEY and UNIQUE guards of [table] under the head's schema
   whose duplicates need not share the table's first RI dimension, each
   as its columns: the engine checks them against the rows at every
   key. A guard that holds the first dimension is keyed: two rows that
   collide on it share a row key, where the cell rule orders them. *)
let table_guards t table =
  match Schema_view.table_schema t.sv table with
  | None -> []
  | Some sch ->
      let dim0 = List.nth_opt (Rowset.ri_dims t.row_state t.sv table) 0 in
      let keyed cols = Option.fold ~none:false ~some:(fun d -> List.mem d cols) dim0 in
      let pk = Uv_sql.Schema.primary_key_columns sch in
      List.filter
        (fun g -> g <> [] && not (keyed g))
        (pk :: List.map (fun c -> [ c ]) (Uv_sql.Schema.unique_columns sch))

(* Every table's guards ([table_guards]) as interned column ids, for the
   replay DAG: a column no entry names has none, and no member writes
   it. *)
let intern_guards t =
  t.guard_ids <-
    Array.init (Hashtbl.length t.table_ids) (fun tid ->
        let table = t.table_names.(tid) in
        List.filter_map
          (fun cols ->
            match
              List.filter_map
                (fun c -> Hashtbl.find_opt t.col_ids (Uv_sql.Schema.qualified table c))
                cols
            with
            | [] -> None
            | ids -> Some (Array.of_list ids))
          (table_guards t table))

(* What a pass reads of an item beyond its shape: its literals, its
   recorded non-determinism, and (only for a shape that changes the
   schema view) its statement. [built] counts the statements built for
   a store's entries. *)
let item_lits = function
  | Entry { entry; _ } -> Stmt_memo.lits_of_stmt entry.Uv_db.Log.stmt
  | Scanned { lits; _ } -> lits

let item_nondet = function
  | Entry { entry; _ } -> entry.Uv_db.Log.nondet
  | Scanned { log; at; _ } -> Uv_db.Log_io.nondet log at

let item_stmt ~built = function
  | Entry { entry; _ } -> entry.Uv_db.Log.stmt
  | Scanned { template; shape; log; at; _ } ->
      if template < 0 then shape
      else begin
        incr built;
        Parser.parse_stmt (Uv_db.Log_io.sql log at)
      end

(* The item's application transaction tag: read (from a store, copied
   out of its segment) only by a pass with the tier. *)
let item_app_txn = function
  | Entry { entry; _ } -> entry.Uv_db.Log.app_txn
  | Scanned { log; at; _ } -> Uv_db.Log_io.app_txn log at

(* Can a pass without the tier leave an entry of shape [sh] underived? A
   read-only entry joins no ungrouped closure (Prop. E.7), unless its
   shape changes the schema view or teaches the RI state, which later
   entries read. Its column sets are the shape's, derived here if they
   are not yet. *)
let read_only ~derived sh =
  (not sh.s_state) && (not sh.s_schema)
  && Rwset.Colset.is_empty (shape_rw ~derived sh).Rwset.w

(* One pass over entries [first .. last]: those at or after [from] are
   derived in full (sets, rows, postings, then keys); those below only
   advance what later entries read: the schema view (a schema-changing
   shape's entries) and the RI state (the entries of a shape whose plan
   teaches aliases or merges). Rows are run from the entry's literals;
   only an entry whose shape changes the schema view needs its
   statement, and a [Scanned] one builds it then. Entries
   [lo .. from - 1] are already derived in full.

   With the tier (grouped questions), every entry's tag is read and
   filed under its group. Without it, no tag is read, and a read-only
   entry after [from] is deferred: it keeps [no_info], no shape id and
   no row keys, as it can join no ungrouped closure. Entry [from] and
   every writer are derived in full either way. *)
let pass t ~obs ~lo ~from ~first ~last =
  let tier = Atomic.get t.tier and gen = Rowset.merge_generation t.row_state in
  let derived = ref 0 and built = ref 0 and deferrals = ref 0 in
  let visit i item ~template ~shape =
    let app_txn = if tier then item_app_txn item else None in
    add_group t i app_txn;
    let sh = template_sets t template shape in
    if i >= from && (tier || i = from || not (read_only ~derived sh)) then begin
      let rw = shape_rw ~derived sh in
      let rows = Rowset.run sh.s_plan (item_lits item) (item_nondet item) in
      if Schema_view.affects shape then apply_schema t i (item_stmt ~built item);
      let inf =
        match item with
        | Entry { entry; _ } ->
            { index = entry.Uv_db.Log.index; shape; text = None; rw; rows; app_txn }
        | Scanned { template; log; at; _ } ->
            let text = if template < 0 then None else Some (Uv_db.Log_io.sql log at) in
            { index = i; shape; text; rw; rows; app_txn }
      in
      t.infos.(i - 1) <- inf;
      index_info t i inf sh
    end
    else if i >= from then begin
      incr deferrals;
      t.infos.(i - 1) <- no_info;
      t.entry_shape.(i - 1) <- -1
    end
    else if sh.s_state then begin
      if Rowset.teaches sh.s_plan then
        ignore (Rowset.run sh.s_plan (item_lits item) (item_nondet item) : Rowset.entry_rows);
      if Schema_view.affects shape then apply_schema t i (item_stmt ~built item)
    end
  in
  Uv_obs.Trace.with_span obs ~cat:"analyze" "analyze.rwsets" (fun () ->
      let i = ref (first - 1) in
      t.source.src_iter first last (fun item ->
          incr i;
          match item with
          | Entry { template; entry = e } -> visit !i item ~template ~shape:e.Uv_db.Log.stmt
          | Scanned { template; shape; _ } ->
              (* a declined scan's statement was built by the source *)
              if template < 0 then incr built;
              visit !i item ~template ~shape);
      Uv_obs.Trace.incr obs ~by:!derived "analyze.rw_derivations";
      Uv_obs.Trace.incr obs ~by:!built "analyze.stmts_built";
      Uv_obs.Trace.incr obs ~by:!deferrals "analyze.readonly_deferred");
  Uv_obs.Trace.with_span obs ~cat:"analyze" "analyze.index" (fun () ->
      (* row keys are derived under the merge state after the pass *)
      if Rowset.merge_generation t.row_state <> gen then rekey_rows t ~lo ~last
      else
        for i = max first from to last do
          key_rows t i
        done);
  intern_guards t;
  Atomic.set t.cells_memo [];
  Atomic.set t.facts None

(* Derive anew from the base, entries [from ..] in full, raising the
   tier first when [tier] asks for it. While a pass runs [lo] reads
   [max_int], so one that raises leaves the analyzer to derive again,
   from a state it resets. *)
let derive t ~obs ~tier ~from =
  Atomic.set t.lo max_int;
  if tier && not (Atomic.get t.tier) then begin
    Atomic.set t.tier true;
    Uv_obs.Trace.incr obs "analyze.grouped_derivations"
  end;
  if not t.pristine then reset t;
  t.pristine <- false;
  reserve t t.n;
  let lo = min from (t.n + 1) in
  pass t ~obs ~lo ~from:lo ~first:1 ~last:t.n;
  Atomic.set t.lo lo

(* Would [require] derive nothing? Entries [from ..] are derived, with
   the tier when [grouped], and entry [from] is not deferred. The tier is
   read before [lo], which a pass sets to [max_int] before it raises the
   tier. *)
let covered t ~grouped ~from =
  let tier = Atomic.get t.tier in
  let lo = Atomic.get t.lo in
  from >= lo && (tier || not grouped) && (from > t.n || not (deferred t from))

let covers t ~from = covered t ~grouped:false ~from:(max 1 from)

let require ?obs ?(grouped = false) t ~from =
  let from = max 1 from in
  if not (covered t ~grouped ~from) then
    Mutex.protect t.lock (fun () ->
        if not (covered t ~grouped ~from) then begin
          let lo = Atomic.get t.lo in
          (* derived from [lo] already, a question lacks the tier or needs
             a deferred entry: either way the tier is raised *)
          let tier = grouped || Atomic.get t.tier || from >= lo in
          derive t ~obs:(Option.value obs ~default:t.obs) ~tier ~from:(min from lo)
        end)

let derived_from t = Atomic.get t.lo

(* A reader of entry [i] outside a question: below [lo], the whole
   history is derived. *)
let require_entry t i =
  if i < 1 || i > t.n then invalid_arg "index out of bounds";
  if i < Atomic.get t.lo then require t ~from:1;
  if deferred t i then require t ~grouped:true ~from:i

(* A reader of the analysed head's state: some pass has run. *)
let require_head t = if Atomic.get t.lo = max_int then require t ~from:1

(* Entry [i]'s record as derived: its tag is read only with the tier. *)
let derived_info t i =
  require_entry t i;
  t.infos.(i - 1)

(* Below [lo], the whole history is derived in one pass, with the tier.
   Without the tier, a writer's tag is read from the source, one entry,
   and nothing is derived again. *)
let info t i =
  if i < 1 || i > t.n then invalid_arg "index out of bounds";
  if i < Atomic.get t.lo then require t ~grouped:true ~from:1;
  let inf = derived_info t i in
  if Atomic.get t.tier then inf
  else begin
    let tag = ref None in
    t.source.src_iter i i (fun item -> tag := item_app_txn item);
    { inf with app_txn = !tag }
  end

let written_tables t i = write_tables (derived_info t i).rw

let extend ?obs t =
  Mutex.protect t.lock @@ fun () ->
  let n = t.source.src_length () and first = t.n + 1 in
  if n < first then 0
  else begin
    let lo = Atomic.get t.lo in
    (* before the first pass there is nothing to extend: the pass reads
       the grown history *)
    if lo = max_int then t.n <- n
    else begin
      Atomic.set t.lo max_int;
      reserve t n;
      pass t ~obs:(Option.value obs ~default:t.obs) ~lo ~from:first ~first ~last:n;
      t.n <- n;
      Atomic.set t.lo lo
    end;
    n - first + 1
  end

let of_source ?(config = Rowset.default_config) ?base
    ?(obs = Uv_obs.Trace.disabled) source =
  create ~config ~obs ?base source

let analyze ?config ?base ?obs log = of_source ?config ?base ?obs (source_of_log log)

let base_hashes t = t.base_hashes

(* The schema view before entry [upto] executes, as the passes recorded
   it: matches [Schema_view.of_log ~upto] — entries strictly before
   [upto]. Shared, so read-only. *)
let schema_view_at t upto =
  let rec find = function
    | [] -> t.sv
    | [ (_, sv) ] -> sv (* the oldest: the base's *)
    | (from, sv) :: older -> if from <= upto then sv else find older
  in
  if upto >= t.head_from then t.sv else find t.views

(* Entry [tau]'s transaction group: its mates' indexes, descending. *)
let target_group_indexes t tau =
  if tau >= 1 && tau <= t.n then
    match t.infos.(tau - 1).app_txn with
    | Some tag -> group t tag
    | None -> [ tau ]
  else [ tau ]

(* What a question about [target] reads: entries from τ on and, grouped,
   τ's transaction-group mates, whose sets seed it. A mate below τ is
   found only once τ is derived, so it may take a second pass. *)
let require_target ?obs t ~grouped (target : target) =
  require ?obs ~grouped t ~from:target.tau;
  if grouped then
    require ?obs ~grouped t
      ~from:(List.fold_left min target.tau (target_group_indexes t target.tau))

let target_rw_derived t (target : target) =
  (* a new statement's sets are taken against the schema as of τ; the
     row state is the analysed head's — a superset of the aliases
     learned before τ, which can only widen the target's sets — and the
     statement leaves it as it is ([Rowset.of_question]) *)
  let sets_of stmt =
    let sv = schema_view_at t target.tau in
    let rows, merged = Rowset.of_question t.row_state sv stmt in
    ( Rwset.of_stmt sv stmt,
      rows,
      List.filter_map
        (fun (table, dim, v, root) ->
          if String.equal dim (dim0_of t.config table) then Some (table, v, root) else None)
        merged )
  in
  let old_sets () =
    if target.tau >= 1 && target.tau <= t.n then
      let inf = t.infos.(target.tau - 1) in
      (inf.rw, inf.rows, [])
    else (Rwset.empty, [], [])
  in
  match target.op with
  | Add stmt -> sets_of stmt
  | Remove -> old_sets ()
  | Change stmt ->
      let rw_new, rows_new, merged = sets_of stmt in
      let rw_old, rows_old, _ = old_sets () in
      (Rwset.union rw_new rw_old, Rowset.merge_rows rows_new rows_old, merged)

let target_rw t target =
  require_target t ~grouped:false target;
  target_rw_derived t target

type provenance = {
  p_col_via : int option;
      (* parent in the column-wise closure: Some 0 = the target's own
         sets; Some v = entry v's sets; Some (-v) = joined as a
         transaction-group mate of entry v *)
  p_row_via : int option; (* ditto, row-wise closure *)
}

type replay_set = {
  member_indexes : int list;
  member_count : int;
  mutated : string list;
  consulted : string list;
  col_only_count : int;
  row_only_count : int;
  provenance : provenance list;
  target_merges : (string * string * string) list;
}

(* ------------------------------------------------------------------ *)
(* Closure computation                                                  *)
(* ------------------------------------------------------------------ *)

(* The row sweep's slots ([row_sweep]) that precede the schema keys':
   [2k + side] for row key [k], then four per table. *)
let row_slots t = (2 * t.row_keys) + (4 * Hashtbl.length t.table_ids)

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
          sh_opened = [||];
          sh_from = [||];
          sh_via = [||];
          r_opened = [||];
          r_from = [||];
          r_openers = [||];
          checked = [||];
          batch = 0;
          epoch = 0;
          cur_ids = [||];
          cur_pos = [||];
          cur_stop = [||];
          cur_tag = [||];
          n_cur = 0;
          heap = [||];
          n_heap = 0;
          cells = Conflict_dag.Cells.create ();
        }
  in
  let n = t.n and np = 2 * Hashtbl.length t.col_ids in
  let nr = row_slots t + np in
  if Array.length s.mark < n then begin
    let size = max 64 (if s.mark = [||] then n else 2 * n) in
    s.mark <- Array.make size 0;
    s.rmark <- Array.make size 0;
    s.via_col <- Array.make size 0;
    s.via_row <- Array.make size 0;
    s.checked <- Array.make (size + 1) 0
  end;
  if Array.length s.opened < np then begin
    s.opened <- Array.make (max np 64) 0;
    s.from <- Array.make (max np 64) 0
  end;
  if Array.length s.sh_opened < t.shape_count then begin
    let size = max t.shape_count 64 in
    s.sh_opened <- Array.make size 0;
    s.sh_from <- Array.make size 0;
    s.sh_via <- Array.make size 0
  end;
  if Array.length s.r_opened < nr then begin
    let size = max 64 (if s.r_opened = [||] then nr else 2 * nr) in
    s.r_opened <- Array.make size 0;
    s.r_from <- Array.make size 0
  end;
  s.epoch <- s.epoch + 1;
  let r = f s in
  Atomic.set t.scratch (Some s);
  r

(* Can entry [i] still join a closure stamping [mark] with [epoch]: at or
   after τ, neither a member nor kept out, and joinable at the
   granularity? Read-only queries never join (Prop E.7) unless they
   belong to a transaction group, whose read is an application-level
   data flow into the rest of its transaction (Table A's BEGIN
   TRANSACTION union rule); [entry_cols] is empty for the entries that
   can join neither way, and its first cell counts the writes. *)
let live_in t ~grouped ~tau ~mark ~epoch i =
  i >= tau
  && i <= t.n
  && (let c = entry_cols t i in
      Array.length c > 0 && (grouped || c.(0) > 0))
  &&
  let m = mark.(i - 1) in
  m <> epoch && m <> -epoch

(* ------------------------------------------------------------------ *)
(* The closures' heap                                                  *)
(* ------------------------------------------------------------------ *)

(* The row sweep merges cursors over ascending postings into one
   ascending stream of (index, cursor tag) pairs. Heap keys pack a
   cursor's next index above its cursor number, so keys compare as plain
   ints and equal indexes order by cursor number — the order the cursors
   were opened in. The column-wise closure's keys are plain indexes. *)
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

let heap_push s key =
  if s.n_heap = Array.length s.heap then s.heap <- grow s.heap s.n_heap 0;
  s.heap.(s.n_heap) <- key;
  s.n_heap <- s.n_heap + 1;
  sift_up s.heap (s.n_heap - 1)

let heap_pop s =
  let top = s.heap.(0) in
  s.n_heap <- s.n_heap - 1;
  s.heap.(0) <- s.heap.(s.n_heap);
  sift_down s.heap s.n_heap 0;
  top

(* Open a cursor tagged [tag] on [post]'s entries past [after], if it
   has any. *)
let open_cursor s post ~after ~tag =
  let pos = posting_lower_bound post (after + 1) in
  if pos < post.len then begin
    let k = s.n_cur in
    if k > cursor_mask then failwith "Analyzer: too many closure cursors";
    if k = Array.length s.cur_pos then begin
      s.cur_ids <- grow s.cur_ids k [||];
      s.cur_pos <- grow s.cur_pos k 0;
      s.cur_stop <- grow s.cur_stop k 0;
      s.cur_tag <- grow s.cur_tag k 0
    end;
    s.cur_ids.(k) <- post.ids;
    s.cur_pos.(k) <- pos;
    s.cur_stop.(k) <- post.len;
    s.cur_tag.(k) <- tag;
    s.n_cur <- k + 1;
    heap_push s ((post.ids.(pos) lsl cursor_bits) lor k)
  end

(* Pop the cursors in ascending (index, cursor) order, [f index tag
   last] after each pop, until none is left — cursors [f] opens
   included. [last] is set on the last pop of its index, unless [f] then
   opens a cursor at that index. Returns the pops. *)
let drain s f =
  let pops = ref 0 in
  while s.n_heap > 0 do
    let top = s.heap.(0) in
    let k = top land cursor_mask in
    let pos = s.cur_pos.(k) + 1 in
    if pos = s.cur_stop.(k) then begin
      s.n_heap <- s.n_heap - 1;
      s.heap.(0) <- s.heap.(s.n_heap)
    end
    else begin
      s.cur_pos.(k) <- pos;
      s.heap.(0) <- (s.cur_ids.(k).(pos) lsl cursor_bits) lor k
    end;
    sift_down s.heap s.n_heap 0;
    incr pops;
    let i = top lsr cursor_bits in
    f i s.cur_tag.(k) (s.n_heap = 0 || s.heap.(0) lsr cursor_bits <> i)
  done;
  !pops

(* The seed's column sets in the [entry_cols] layout; a column no entry
   touches has no id, and no shape to open. *)
let seed_cols t (seed_rw : Rwset.rw) =
  let ids_of cols =
    Rwset.Colset.fold
      (fun c acc ->
        match Hashtbl.find_opt t.col_ids c with
        | Some id -> id :: acc
        | None -> acc)
      cols []
  in
  let writes = ids_of seed_rw.Rwset.w in
  Array.of_list ((List.length writes :: writes) @ ids_of seed_rw.Rwset.r)

(* A computed column-wise closure: its member count, membership of an
   entry that is live for the question, each member's parent (as
   [provenance.p_col_via]) and the member list. *)
type col_closure = {
  count : int;
  mem : int -> bool;
  parent : int -> int;
  members : unit -> int list;
}

let group_expand t i =
  match t.infos.(i - 1).app_txn with
  | None -> []
  | Some tag -> group t tag

(* The column-wise closure as a fixpoint over statement shapes. Every
   entry of a shape shares its columns, so column-wise conflict is a
   relation between shapes: a written column reaches every shape that
   touches it, a read column the shapes that write it, and read-only
   shapes only when [grouped], as only then can their entries join. A
   reached shape has an opener, the smallest of the seed (0, reaching
   from just before τ) and the members whose columns reach it, and an
   opening point, its first entry past the opener that is not kept out.
   Its entries from the opening point on are members ([covered]), each
   with the opener as its parent: the earliest member (or the target)
   it conflicts with.

   The heap holds opening points, and an opened shape's first member
   taints its slots; each reach costs one binary search. Ungrouped,
   openers come in ascending order, so each slot is tainted and each
   shape opened once: O((shapes + slots) log n), nothing per entry.
   Grouped, a covered entry that joins brings in its transaction group,
   and a mate taints its slots from its own index, which may lower a
   shape's opener and opening point (label-correcting). So grouped, a
   shape's covered entries are walked one pop at a time, in index order
   with every other shape's, and a walk stops at an entry another walk
   passed ([s.via_col] holds [max_int] for a walked entry). A mate not
   covered keeps the walked entry that brought its group in as its
   parent, in [s.via_col]; grouped members are stamped in [s.mark]. *)
let col_fixpoint ?(obs = Uv_obs.Trace.disabled) t s ~tau ~exclude ~seed_rw
    ~grouped =
  let n = t.n in
  let epoch = s.epoch and mark = s.mark and via = s.via_col in
  List.iter (fun i -> if i >= 1 && i <= n then mark.(i - 1) <- -epoch) exclude;
  let live = live_in t ~grouped ~tau ~mark ~epoch in
  s.n_heap <- 0;
  let opened = ref [] and joined = ref [] in
  (* [sh]'s first entry past [after] that is not kept out, or [max_int] *)
  let first_past sh after =
    let p = sh.s_entries in
    let k = ref (posting_lower_bound p (after + 1)) in
    while !k < p.len && mark.(p.ids.(!k) - 1) = -epoch do
      incr k
    done;
    if !k < p.len then p.ids.(!k) else max_int
  in
  let reach ~opener ~after sh =
    let id = sh.s_id in
    let fresh = s.sh_opened.(id) <> epoch in
    if (grouped || sh.s_cols.(0) > 0) && (fresh || opener < s.sh_via.(id))
    then begin
      if fresh then begin
        s.sh_opened.(id) <- epoch;
        s.sh_from.(id) <- max_int;
        opened := sh :: !opened
      end;
      s.sh_via.(id) <- opener;
      let a = first_past sh after in
      if a < s.sh_from.(id) then begin
        s.sh_from.(id) <- a;
        heap_push s a
      end
    end
  in
  (* taint [cols], in the [entry_cols] layout: slot [2c] of a written
     column, [2c + 1] of a read one *)
  let taint ~opener ~after cols =
    let nw = cols.(0) in
    for k = 1 to Array.length cols - 1 do
      let slot = if k <= nw then 2 * cols.(k) else (2 * cols.(k)) + 1 in
      if s.opened.(slot) <> epoch || s.from.(slot) > after then begin
        s.opened.(slot) <- epoch;
        s.from.(slot) <- after;
        List.iter (reach ~opener ~after) t.col_shapes.(slot)
      end
    done
  in
  let add i =
    mark.(i - 1) <- epoch;
    joined := i :: !joined;
    taint ~opener:i ~after:i (entry_cols t i)
  in
  taint ~opener:0 ~after:(tau - 1) (seed_cols t seed_rw);
  let pops = ref 0 in
  while s.n_heap > 0 do
    let e = heap_pop s in
    incr pops;
    if not grouped then taint ~opener:e ~after:e (entry_cols t e)
    else if not (mark.(e - 1) = epoch && via.(e - 1) = max_int) then begin
      if live e then begin
        add e;
        List.iter
          (fun g ->
            if live g then begin
              via.(g - 1) <- e;
              add g
            end)
          (group_expand t e)
      end;
      via.(e - 1) <- max_int;
      let next = first_past t.shape_of_id.(t.entry_shape.(e - 1)) e in
      if next < max_int then heap_push s next
    end
  done;
  let covered i =
    let id = t.entry_shape.(i - 1) in
    id >= 0 && s.sh_opened.(id) = epoch && i >= s.sh_from.(id)
  in
  (* ungrouped, the only entry kept out is τ, below every opening point:
     a reached shape's members are its posting from there on *)
  let suffix sh = posting_lower_bound sh.s_entries s.sh_from.(sh.s_id) in
  let count =
    if grouped then List.length !joined
    else
      List.fold_left
        (fun acc sh -> acc + sh.s_entries.len - suffix sh)
        0 !opened
  in
  Uv_obs.Trace.incr obs ~by:count "analyze.closure_iters";
  Uv_obs.Trace.incr obs ~by:!pops "analyze.closure_col_visits";
  {
    count;
    mem = (if grouped then fun i -> mark.(i - 1) = epoch else covered);
    parent =
      (fun i ->
        if covered i then s.sh_via.(t.entry_shape.(i - 1)) else -via.(i - 1));
    members =
      (fun () ->
        if grouped then !joined
        else
          List.concat_map
            (fun sh ->
              let lo = suffix sh in
              List.init (sh.s_entries.len - lo) (fun k ->
                  sh.s_entries.ids.(lo + k)))
            !opened);
  }

(* A schema key ([_S.*]) one side writes and the other reads or writes:
   a conflict over wildcard rows (Table B). *)
let schema_conflict (rw : Rwset.rw) (inf : info) =
  let meets a b =
    Rwset.Colset.exists (fun c -> is_schema_key c && Rwset.Colset.mem c b) a
  in
  meets rw.Rwset.w inf.rw.Rwset.r
  || meets rw.Rwset.r inf.rw.Rwset.w
  || meets rw.Rwset.w inf.rw.Rwset.w

(* Some table whose row sets overlap multi-dimensionally. *)
let rows_conflict t rows (inf : info) =
  List.exists
    (fun (table, access) ->
      match List.assoc_opt table inf.rows with
      | None -> false
      | Some their -> Rowset.overlaps t.row_state table access `Any_conflict their)
    rows

(* The row-wise pair conflict: a schema-key conflict (wildcard rows per
   Table B), or some table whose row sets overlap multi-dimensionally. *)
let row_conflict t (rw : Rwset.rw) rows (inf : info) =
  require_head t;
  schema_conflict rw inf || rows_conflict t rows inf

(* An entry that never joins writes nothing. *)
let changes_schema t i =
  require_entry t i;
  let id = t.entry_shape.(i - 1) in
  if id >= 0 then t.shape_of_id.(id).s_schema else Ast.is_ddl t.infos.(i - 1).shape

(* A target's [rows] keyed by lookup. A value without a row key takes
   [t.row_keys], past the analyzer's: it has no posting, but its side is
   not empty. *)
let keyed_now t rows =
  let find tbl k ~default = Option.value (Hashtbl.find_opt tbl k) ~default in
  let key tid cv = find t.table_rows.(tid).key_of cv ~default:t.row_keys in
  let table_id table = find t.table_ids table ~default:(-1) in
  row_runs t (fresh_posting ()) ~table_id ~key rows

(* The row-wise closure as one ascending sweep over row-key postings,
   on the cursor heap ([open_cursor], [drain]). A member (or the seed,
   just before τ) taints slots, each from just past it: per table it has
   rows of, its written keys meet the keys' readers and writers (slots
   [2k] and [2k + 1], over [row_postings]) and the table's wildcard
   readers and writers, its read keys the writers only;
   a wildcard side meets the table's [all] posting of that side instead.
   A slot's read-only entries have postings of their own, opened only at
   group granularity, where alone they can join. A schema key ([_S.*])
   is a wildcard row (Table B): written, it meets every shape touching
   it; read, the shapes writing it.

   A posting hit decides the conflict on a schema key, and on a
   one-dimension table: the rows overlap. Such a slot opens once per
   question, its cursor tagged with its opener (again only from below
   its opening point, where a group mate joins behind the sweep), and a
   live candidate joins.
   Elsewhere a candidate that fails against one member may pass against
   a later one that taints the same slot. Such a slot's cursors are
   tagged with the slot, and every member that taints it joins its
   opener list; a cursor opens again only where the open ones have
   passed the member's index (a group mate joining behind the sweep). A
   candidate joins with the smallest opener on the list, below it, that
   [schema_conflict] or [rows_conflict] accepts. The tag's low bit tells
   the two kinds apart.

   Pops at one index come in opening order, and ungrouped members join
   in ascending order, so a member's parent ([s.via_row]) is the
   smallest valid one: the target (0), else the earliest member it
   conflicts with, else the group mate it joined with. Returns the
   members in join order; [s.rmark] stamps them with [s.epoch]. *)
let row_sweep ?(obs = Uv_obs.Trace.disabled) t s ~tau ~exclude ~seed_rw
    ~seed_rows ~grouped =
  let n = t.n in
  let epoch = s.epoch and mark = s.rmark and via = s.via_row in
  List.iter (fun i -> if i >= 1 && i <= n then mark.(i - 1) <- -epoch) exclude;
  let live = live_in t ~grouped ~tau ~mark ~epoch in
  let table_slots = 2 * t.row_keys and schema_slots = row_slots t in
  let seed_cols = seed_cols t seed_rw in
  s.n_cur <- 0;
  s.n_heap <- 0;
  let decided_to = ref 0 (* the highest index decided *) in
  (* take a decided slot from [after] unless a cursor that covers it is
     open: [true] when it needs one *)
  let claim ~after slot =
    let fresh = s.r_opened.(slot) <> epoch || s.r_from.(slot) > after in
    if fresh then begin
      s.r_opened.(slot) <- epoch;
      s.r_from.(slot) <- after
    end;
    fresh
  in
  (* list [opener] on a listed slot: [true] when the slot needs a
     cursor from [after] *)
  let claim_listed ~opener ~after slot =
    (* sized here, as only a question that lists openers uses them *)
    if Array.length s.r_openers < Array.length s.r_opened then
      s.r_openers <- Array.make (Array.length s.r_opened) no_posting;
    if s.r_openers.(slot) == no_posting then
      s.r_openers.(slot) <- fresh_posting ();
    let ops = s.r_openers.(slot) in
    if s.r_opened.(slot) <> epoch then begin
      s.r_opened.(slot) <- epoch;
      s.r_from.(slot) <- after;
      ops.len <- 0;
      posting_push ops opener;
      true
    end
    (* a key the opener both reads and writes lists it once *)
    else if posting_last ops = opener then false
    else begin
      posting_push ops opener;
      (* the open cursors have yielded nothing past the larger of their
         lowest start and the highest index decided *)
      let fresh = after < max s.r_from.(slot) !decided_to in
      if fresh then s.r_from.(slot) <- min s.r_from.(slot) after;
      fresh
    end
  in
  (* Open [slot] for [opener] from [after] on [posts.(at)], and on
     [posts.(at + 1)], the read-only entries', when grouped: decided
     where a hit shows the rows to overlap ([overlaps]), else listed. *)
  let open_slot ~opener ~after ~overlaps slot posts at =
    let fresh, tag =
      if overlaps then (claim ~after slot, opener lsl 1)
      else (claim_listed ~opener ~after slot, (slot lsl 1) lor 1)
    in
    if fresh then begin
      open_cursor s posts.(at) ~after ~tag;
      if grouped then open_cursor s posts.(at + 1) ~after ~tag
    end
  in
  (* the postings of side [side] (0 readers, 1 writers) of table [tid]
     that meet [count] keys from [runs.(first)] *)
  let meet ~opener ~after runs tid side first count =
    if count > 0 then begin
      let tr = t.table_rows.(tid) and table = table_slots + (4 * tid) in
      let overlaps = tr.one_dim in
      if count = 1 && runs.(first) = 0 then
        open_slot ~opener ~after ~overlaps (table + 2 + side) tr.all (2 * side)
      else begin
        open_slot ~opener ~after ~overlaps (table + side) tr.wild (2 * side);
        for j = first to first + count - 1 do
          let slot = (2 * runs.(j)) + side in
          (* a question's own key has no posting *)
          if slot < table_slots then
            open_slot ~opener ~after ~overlaps slot t.row_postings (2 * slot)
        done
      end
    end
  in
  let taint ~opener ~after cols runs =
    let nw = cols.(0) in
    for k = 1 to Array.length cols - 1 do
      let c = cols.(k) in
      let slot = if k <= nw then 2 * c else (2 * c) + 1 in
      if t.col_schema.(c) && claim ~after (schema_slots + slot) then
        List.iter
          (fun sh ->
            if grouped || sh.s_cols.(0) > 0 then
              open_cursor s sh.s_entries ~after ~tag:(opener lsl 1))
          t.col_shapes.(slot)
    done;
    iter_runs runs (fun tid p nr nw ->
        meet ~opener ~after runs tid 0 (p + 1 + nr) nw;
        meet ~opener ~after runs tid 1 (p + 1 + nr) nw;
        meet ~opener ~after runs tid 1 (p + 1) nr)
  in
  let joined = ref [] in
  let add src i =
    mark.(i - 1) <- epoch;
    joined := i :: !joined;
    via.(i - 1) <- src;
    taint ~opener:i ~after:i (entry_cols t i) t.entry_rows.(i - 1)
  in
  let join src i =
    add src i;
    if grouped then
      List.iter (fun g -> if live g then add (-i) g) (group_expand t i)
  in
  taint ~opener:0 ~after:(tau - 1) seed_cols (keyed_now t seed_rows);
  let seed_writes_schema = writes_schema t seed_cols in
  (* the pair conflict of opener [o] and entry [i] *)
  let conflicts o i =
    let inf = t.infos.(i - 1) in
    let rw, rows, ws =
      if o = 0 then (seed_rw, seed_rows, seed_writes_schema)
      else
        let m = t.infos.(o - 1) in
        (m.rw, m.rows, writes_schema t (entry_cols t o))
    in
    ((ws || writes_schema t (entry_cols t i)) && schema_conflict rw inf)
    || rows_conflict t rows inf
  in
  (* does opener [o] conflict with [i], the index being decided: each
     verdict once, though [o] may open several of [i]'s slots *)
  let verdict o i =
    let c = s.checked.(o) in
    if c lsr 1 = s.batch then c land 1 = 1
    else begin
      let v = conflicts o i in
      s.checked.(o) <- (s.batch lsl 1) lor Bool.to_int v;
      v
    end
  in
  (* The smallest opener on the lists of [slots] that is below [bound]
     and conflicts with [i], or [bound]. Ungrouped lists ascend: walk
     them merged, so only the openers below the answer are checked. *)
  let smallest i bound slots =
    let lists = Array.of_list (List.map (fun slot -> s.r_openers.(slot)) slots) in
    let pos = Array.make (Array.length lists) 0 in
    let rec least () =
      let j = ref (-1) and o = ref bound in
      Array.iteri
        (fun k ops ->
          if pos.(k) < ops.len && ops.ids.(pos.(k)) < !o then begin
            j := k;
            o := ops.ids.(pos.(k))
          end)
        lists;
      if !j < 0 then bound
      else begin
        pos.(!j) <- pos.(!j) + 1;
        if verdict !o i then !o else least ()
      end
    in
    (* a grouped list may not ascend: try every opener below the best *)
    let scan best ops =
      let best = ref best in
      for k = 0 to ops.len - 1 do
        let o = ops.ids.(k) in
        if o < !best && verdict o i then best := o
      done;
      !best
    in
    if grouped then Array.fold_left scan bound lists else least ()
  in
  (* the pops at the index being decided: the smallest decided opener,
     the listed slots *)
  let decided = ref max_int and listed = ref [] in
  let visits =
    drain s (fun i tag last ->
        let x = tag lsr 1 in
        if tag land 1 = 0 then decided := min !decided x
        else if not (List.mem x !listed) then listed := x :: !listed;
        if last then begin
          decided_to := max !decided_to i;
          let joins = live i in
          if joins || mark.(i - 1) = epoch then begin
            (* a member keeps the smallest valid parent, which beats a
               group mate *)
            let p = if joins || via.(i - 1) < 0 then i else via.(i - 1) in
            s.batch <- s.batch + 1;
            let o = smallest i (min !decided p) !listed in
            if o < p then if joins then join o i else via.(i - 1) <- o
          end;
          decided := max_int;
          listed := []
        end)
  in
  Uv_obs.Trace.incr obs ~by:(List.length !joined) "analyze.closure_iters";
  Uv_obs.Trace.incr obs ~by:visits "analyze.closure_row_visits";
  !joined

(* A joined entry's [named_tables] of its write and read sets: its
   shape's, derived once. *)
let named_of t i =
  let id = t.entry_shape.(i - 1) in
  let derive (rw : Rwset.rw) = (named_tables rw.Rwset.w, named_tables rw.Rwset.r) in
  if id < 0 then derive t.infos.(i - 1).rw
  else
    let sh = t.shape_of_id.(id) in
    match sh.s_tables with
    | Some wr -> wr
    | None ->
        let wr = derive (Lazy.force sh.s_rw) in
        sh.s_tables <- Some wr;
        wr

let classify t ~joined (seed_rw : Rwset.rw) =
  let written = ref (named_tables seed_rw.Rwset.w)
  and read = ref (named_tables seed_rw.Rwset.r) in
  (* the entries of one shape share its tables: take each once *)
  ignore
    (List.fold_left
       (fun seen i ->
         let ((w, r) as wr) = named_of t i in
         if List.memq wr seen then seen
         else begin
           written := List.rev_append w !written;
           read := List.rev_append r !read;
           wr :: seen
         end)
       [] joined
      : (string list * string list) list);
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

let replay_set ?obs ?(mode = Cell) ?(grouped = false) t (target : target) =
  (* a pass the question starts reports to [of_source]'s [obs] unless
     the question has its own *)
  require_target ?obs t ~grouped target;
  let obs = Option.value obs ~default:Uv_obs.Trace.disabled in
  let seed_rw, seed_rows, target_merges = target_rw_derived t target in
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
  let tau = target.tau in
  with_scratch t @@ fun s ->
  let span name f = Uv_obs.Trace.with_span obs ~cat:"analyze" name f in
  let col =
    if mode = Row_only then None
    else
      Some
        (span "closure.col" (fun () ->
             col_fixpoint ~obs t s ~tau ~exclude ~seed_rw ~grouped))
  in
  let rows () =
    span "closure.row" (fun () ->
        row_sweep ~obs t s ~tau ~exclude ~seed_rw ~seed_rows ~grouped)
  in
  let joined, col_count, row_count =
    match col with
    | None ->
        let j = rows () in
        (j, -1, List.length j)
    | Some c when mode = Col_only -> (c.members (), c.count, -1)
    | Some c ->
        (* Theorem E.20: the row closure's joins that the column closure
           also reached *)
        let jr = rows () in
        (List.filter c.mem jr, c.count, List.length jr)
  in
  let member_indexes = List.sort Int.compare joined in
  let provenance =
    List.map
      (fun i ->
        {
          p_col_via = Option.map (fun c -> c.parent i) col;
          p_row_via = (if mode = Col_only then None else Some s.via_row.(i - 1));
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
    target_merges;
  }

let canonical_row_value t ~table v =
  require_head t;
  Rowset.canonical t.row_state table (dim0_of t.config table)
    (Value.serialize v)

let row_merge_generation t =
  require_head t;
  Rowset.merge_generation t.row_state

let row_state t =
  require_head t;
  t.row_state

(* ------------------------------------------------------------------ *)
(* Provenance: why did each member join?                                *)
(* ------------------------------------------------------------------ *)

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

(* The columns two column sets conflict through: W∩R ∪ R∩W ∪ W∩W. *)
let shared_columns (a : Rwset.rw) (b : Rwset.rw) =
  let inter x y = Rwset.Colset.elements (Rwset.Colset.inter x y) in
  List.sort_uniq compare
    (inter a.Rwset.w b.Rwset.r @ inter a.Rwset.r b.Rwset.w
    @ inter a.Rwset.w b.Rwset.w)

let conflict_columns t i j = shared_columns (derived_info t i).rw (derived_info t j).rw

let conflict_tables t i j = shared_tables t (derived_info t i).rows (derived_info t j).rows

let explain_report t (target : target) rs =
  let seed_rw, seed_rows, _ = target_rw t target in
  List.iter (require_entry t) rs.member_indexes;
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
        (Uv_sql.Ast.stmt_kind inf.shape)
        (String.concat "; " reasons))
    rs.member_indexes rs.provenance

(* ------------------------------------------------------------------ *)
(* The replay DAG                                                       *)
(* ------------------------------------------------------------------ *)

(* Entry [i]'s row in the [entry_cols] layout. An entry that never joins
   a closure has none: it only reads, and a column that no indexed entry
   interned has no writer, so reading it orders nothing. *)
let cols_of t i =
  let row = entry_cols t i in
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

(* Member [p]'s accesses to cell group [group] on table [tid]: its row
   keys of that side in [runs], each through [one] ([merged_keys]), or
   key 0 without a run for [tid]. A loop
   of its own, as [iter_runs]'s closure would allocate per access. *)
let rec dag_access one cells p runs tid ~group ~write at found =
  if at < Array.length runs then begin
    let h = runs.(at) in
    let nr = (h lsr count_bits) land count_mask and nw = h land count_mask in
    let mine = h lsr (2 * count_bits) = tid in
    if mine then begin
      let first = if write then at + 1 + nr else at + 1 in
      for j = first to first + (if write then nw else nr) - 1 do
        let k = runs.(j) in
        let key =
          if Hashtbl.length one = 0 then k
          else Option.value (Hashtbl.find_opt one k) ~default:k
        in
        Conflict_dag.Cells.access cells p ~write ~group ~key
      done
    end;
    dag_access one cells p runs tid ~group ~write (at + 1 + nr + nw) (found || mine)
  end
  else if not found then Conflict_dag.Cells.access cells p ~write ~group ~key:0

(* The first written column [cols.(k ..)] of [cols] (an [entry_cols]
   row) that is a real column of table [tid]; there is one. *)
let rec first_keyed t cols tid k =
  if t.col_row_keyed.(cols.(k)) && t.col_table.(cols.(k)) = tid then k
  else first_keyed t cols tid (k + 1)

(* The table a top-level DELETE removes rows from: no guard is checked
   there. *)
let deleted_table t (stmt : Ast.stmt) =
  match stmt with
  | Ast.Delete { table; _ } -> (
      match Schema_view.view t.sv table with
      | Some { Ast.sel_from = Some (parent, _); _ } -> Some parent
      | _ -> Some table)
  | _ -> None

let unkeyed_guards t i =
  let inf = derived_info t i in
  let written = write_tables inf.rw in
  List.concat_map
    (fun table ->
      if deleted_table t inf.shape = Some table then []
      else
        List.filter_map
          (fun g ->
            let cols = List.map (Uv_sql.Schema.qualified table) g in
            if List.exists (fun c -> Rwset.Colset.mem c inf.rw.Rwset.w) cols then
              Some cols
            else None)
          (table_guards t table))
    written

(* One ascending pass over the members on last-writer cells. The cell
   rule's groups are the columns, keyed by the members' row keys (0 for
   any row: a wildcard, or a table without a run), so row-disjoint
   chains stay parallel (the source of TPC-C's and SEATS' replay
   parallelism, §4.4). The row-level write-write rule's are the tables,
   written by every member writing a real column, whatever the columns:
   [Storage.update] replaces whole rows, so two members writing
   different columns of one row must keep commit order when run in
   parallel. A member that writes a column of one of its tables'
   unkeyed guards ([unkeyed_guards]) reads every column of the guard at
   every key, so it keeps commit order with each member writing one of
   them, whatever their rows: which of two colliding writes fails the
   check depends on their order. *)
(* The row keys of each class a target merged ([merges]: the root's
   and each value's merged into it), mapped to the least of them. *)
let merged_keys t merges =
  let one = Hashtbl.create 8 in
  List.iter
    (fun (table, _, root) ->
      match Hashtbl.find_opt t.table_ids table with
      | None -> ()
      | Some tid ->
          let key (tb, v, r) =
            if tb = table && r = root then Hashtbl.find_opt t.table_rows.(tid).key_of v
            else None
          in
          let keys = List.filter_map key ((table, root, root) :: merges) in
          List.iter (fun k -> Hashtbl.replace one k (List.fold_left min k keys)) keys)
    merges;
  one

let replay_dag ?(obs = Uv_obs.Trace.disabled) ?(merges = []) t ~members =
  List.iter (require_entry t) members;
  Uv_obs.Trace.with_span obs ~cat:"analyze" "cluster" @@ fun () ->
  match members with
  | [] | [ _ ] ->
      (* nothing to order: no scratch *)
      Conflict_dag.of_preds ~nodes:(Array.of_list members)
        (Array.make (List.length members) [||])
  | _ ->
  with_scratch t @@ fun s ->
  let nodes = Array.of_list members in
  let n = Array.length nodes in
  let ncols = Hashtbl.length t.col_ids in
  let one = merged_keys t merges in
  let cells = s.cells in
  Conflict_dag.Cells.start cells ~nodes:n
    ~groups:(ncols + Hashtbl.length t.table_ids)
    ~keys:t.row_keys;
  let writes cols nw c =
    let rec go k = k <= nw && (cols.(k) = c || go (k + 1)) in
    go 1
  in
  let preds =
    Array.mapi
      (fun p i ->
        let cols = cols_of t i and runs = t.entry_rows.(i - 1) in
        let nw = cols.(0) in
        for k = nw + 1 to Array.length cols - 1 do
          let c = cols.(k) in
          dag_access one cells p runs t.col_table.(c) ~group:c ~write:false 0 false
        done;
        for k = 1 to nw do
          let c = cols.(k) in
          let tid = t.col_table.(c) in
          if
            t.guard_ids.(tid) <> []
            && t.col_row_keyed.(c)
            && first_keyed t cols tid 1 = k
            && deleted_table t t.infos.(i - 1).shape <> Some t.table_names.(tid)
          then
            List.iter
              (fun g ->
                if Array.exists (writes cols nw) g then
                  Array.iter
                    (fun c -> Conflict_dag.Cells.access cells p ~write:false ~group:c ~key:0)
                    g)
              t.guard_ids.(tid)
        done;
        for k = 1 to nw do
          let c = cols.(k) in
          let tid = t.col_table.(c) in
          dag_access one cells p runs tid ~group:c ~write:true 0 false;
          (* the row rule, once per table *)
          if t.col_row_keyed.(c) && first_keyed t cols tid 1 = k then
            dag_access one cells p runs tid ~group:(ncols + tid) ~write:true 0 false
        done;
        Conflict_dag.Cells.take cells)
      nodes
  in
  let dag = Conflict_dag.of_preds ~nodes preds in
  Uv_obs.Trace.incr obs ~by:(Conflict_dag.edge_count dag) "replay.edges";
  Uv_obs.Trace.incr obs ~by:(Conflict_dag.Cells.visits cells)
    "replay.cell_visits";
  dag

(* ------------------------------------------------------------------ *)
(* Cells for member redo                                                *)
(* ------------------------------------------------------------------ *)

(* [f c key] per row key of one side of table [tid]'s run in [runs], or
   [f c 0] without a run for [tid] (as [dag_access] keys them); true as
   soon as [f] is. *)
let side_keys_exist runs tid ~write f c =
  let found = ref false and hit = ref false and at = ref 0 in
  while (not !hit) && !at < Array.length runs do
    let h = runs.(!at) in
    let nr = (h lsr count_bits) land count_mask and nw = h land count_mask in
    if h lsr (2 * count_bits) = tid then begin
      found := true;
      let first = if write then !at + 1 + nr else !at + 1 in
      let last = first + (if write then nw else nr) - 1 in
      let j = ref first in
      while (not !hit) && !j <= last do
        hit := f c runs.(!j);
        incr j
      done
    end;
    at := !at + 1 + nr + nw
  done;
  !hit || ((not !found) && f c 0)

let exists_cell ?(column = fun _ -> true) t i ~write f =
  require_entry t i;
  let cols = cols_of t i and runs = t.entry_rows.(i - 1) in
  let nw = cols.(0) in
  let hi = if write then nw else Array.length cols - 1 in
  let hit = ref false and k = ref (if write then 1 else nw + 1) in
  while (not !hit) && !k <= hi do
    let c = cols.(!k) in
    if t.col_row_keyed.(c) && column c then
      hit := side_keys_exist runs t.col_table.(c) ~write f c;
    incr k
  done;
  !hit

let column_count t =
  require_head t;
  Hashtbl.length t.col_ids

let table_count t =
  require_head t;
  Hashtbl.length t.table_ids

let table_id t table =
  require_head t;
  Option.value (Hashtbl.find_opt t.table_ids table) ~default:(-1)

let column_table t c =
  require_head t;
  t.col_table.(c)

let describe_row_cells t (sch : Uv_sql.Schema.table) =
  let table = sch.Uv_sql.Schema.tbl_name in
  let names = Uv_sql.Schema.column_names sch in
  (* column ids are looked up on first use: most questions name a few
     columns of a table. Concurrent questions may fill one slot twice,
     with the same value. *)
  let ids = Array.make (List.length names) (-2) and names_a = Array.of_list names in
  let column p =
    if p < 0 || p >= Array.length ids then -1
    else begin
      if ids.(p) = -2 then
        ids.(p) <-
          (match
             Hashtbl.find_opt t.col_ids (Uv_sql.Schema.qualified table names_a.(p))
           with
          | Some id when t.col_row_keyed.(id) -> id
          | _ -> -1);
      ids.(p)
    end
  in
  let position c =
    let rec find p = function
      | [] -> -1
      | n :: rest -> if String.equal n c then p else find (p + 1) rest
    in
    find 0 names
  in
  let positions cs = List.filter (fun p -> p >= 0) (List.map position cs) in
  let dim0 =
    match Rowset.ri_dims t.row_state t.sv table with
    | d :: _ -> position d
    | [] -> -1
  in
  let tid = table_id t table in
  let key =
    if tid >= 0 && dim0 >= 0 then begin
      let tr = t.table_rows.(tid) in
      fun row ->
        if dim0 >= Array.length row then 0
        else
          Option.value ~default:(-1)
            (Hashtbl.find_opt tr.key_of
               (Rowset.canonical t.row_state table tr.dim0
                  (Uv_sql.Value.serialize row.(dim0))))
    end
    else fun _ -> 0
  in
  {
    tid;
    column;
    dim0;
    pk = positions (Uv_sql.Schema.primary_key_columns sch);
    uniques = positions (Uv_sql.Schema.unique_columns sch);
    key;
  }

let row_cells t sch =
  require_head t;
  match List.assq_opt sch (Atomic.get t.cells_memo) with
  | Some rc -> rc
  | None ->
      let rc = describe_row_cells t sch in
      let rec remember () =
        let l = Atomic.get t.cells_memo in
        if not (Atomic.compare_and_set t.cells_memo l ((sch, rc) :: l)) then
          remember ()
      in
      remember ();
      rc

(* ---- what a question reads of its catalog ---- *)

let catalog_facts t cat =
  let epoch = Uv_db.Catalog.epoch cat in
  match Atomic.get t.facts with
  | Some f when f.cf_epoch = epoch -> f
  | _ ->
      require_head t;
      let f =
        {
          cf_epoch = epoch;
          cf_triggered = Uv_db.Catalog.trigger_tables cat;
          cf_tables = Array.make (Hashtbl.length t.table_ids) None;
        }
      in
      Atomic.set t.facts (Some f);
      f

let trigger_tables f = f.cf_triggered

let describe_table t f name sch =
  let layout = row_cells t sch in
  let keyed_pk = List.mem layout.dim0 layout.pk in
  let guard =
    List.filter_map
      (fun (p, keyed) ->
        let id = layout.column p in
        if id < 0 then None else Some (id, keyed))
      (List.map (fun p -> (p, keyed_pk)) layout.pk
      @ List.map (fun p -> (p, p = layout.dim0)) layout.uniques)
  in
  {
    tf_schema = sch;
    tf_layout = layout;
    tf_guard = guard;
    tf_triggered = List.mem name f.cf_triggered;
  }

let table_facts t f tid name st =
  let sch = Uv_db.Storage.schema st in
  if tid < 0 || tid >= Array.length f.cf_tables then describe_table t f name sch
  else
    match f.cf_tables.(tid) with
    | Some tf when tf.tf_schema == sch -> tf
    | _ ->
        let tf = describe_table t f name sch in
        f.cf_tables.(tid) <- Some tf;
        tf

let to_dot t rs =
  let members = rs.member_indexes in
  List.iter (require_entry t) members;
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph replay {\n  rankdir=BT;\n  node [shape=box, fontsize=10];\n";
  List.iter
    (fun i ->
      let label =
        let sql = Uv_sql.Printer.stmt_compact (stmt t.infos.(i - 1)) in
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
    (Conflict_dag.edges (replay_dag ~merges:rs.target_merges t ~members));
  Buffer.add_string buf "}\n";
  Buffer.contents buf
