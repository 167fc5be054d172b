(* Member redo (DESIGN.md §5): a replay-set member whose reads meet no
   cell the what-if changed writes what it wrote in history, so its
   journal is applied instead of its SQL. *)

open Uv_db
module Value = Uv_sql.Value
module Ast = Uv_sql.Ast
module Schema = Uv_sql.Schema
module Itbl = Hashtbl.Make (Int)

type table = {
  tid : int;  (* the analyzer's id for the table *)
  schema : Schema.table;
  layout : Analyzer.row_cells;
  guard : (int * bool) list;
      (* written PRIMARY KEY / UNIQUE column -> checked at the write's own
         row keys (true: a duplicate shares the first RI dimension) or at
         every key *)
  triggered : bool;
  dirty_rows : row Itbl.t;  (* its part of [t.rows] *)
}

(* A row whose replay image differs from its history image at this point
   of the replay ([None]: the row does not exist there), and the dirty
   marks it holds. *)
and row = {
  table : table;
  hist : Value.t array option;
  cur : Value.t array option;
  marks : int list;
}

(* Two ints in one. A row: its rowid above its table's [tid] (fewer
   than 2^16 tables). A cell: its row key, shifted up by one so that -1
   (a value no entry names) fits, above its column id or [tid] (fewer
   than 2^24). *)
let row_key tid r = (r lsl 16) lor tid
let tid_of_row key = key land 0xFFFF
let rowid_of_row key = key lsr 16
let cell c k = ((k + 1) lsl 24) lor c
let owner_of_cell key = key land 0xFFFFFF

type t = {
  analyzer : Analyzer.t;
  catalog : Catalog.t;
  facts : Analyzer.catalog_facts;
  infos : table option array;  (* by [tid]; [None]: not a base table *)
  known : bool array;  (* by [tid]: [infos] filled *)
  rows : row Itbl.t;  (* [row_key tid rowid] *)
  (* the dirty set, as counted marks: a column mark (column, key) for a
     row present on both sides under one key whose column differs, a
     row mark (table, key) — every column — for a row that appears,
     vanishes or changes key *)
  cells : int Itbl.t;  (* [cell c k] -> column marks *)
  col_marks : int array;  (* column -> its column marks *)
  wide : int Itbl.t;  (* [cell tid k] -> row marks *)
  tab_marks : int array;  (* [tid] -> its row marks *)
  mutable marked : int;
  mutable version : int;  (* moves at every change of the set *)
  mutable grown : int;  (* moves where a row enters the set or changes in it *)
  mutable history_side : bool;
      (* the catalog still holds history's side of the seeded rows: their
         rollback is deferred *)
  verdicts : (int * int * bool) Itbl.t;
      (* member -> ([version], [grown], its [clean] verdict then) *)
  mutable computed : int;  (* [clean] verdicts computed, not served *)
  mutable settled : int;
  mutable first_empty : int;  (* [settled] when the set first emptied *)
  mutable ever_dirty : bool;
  fallbacks : int Atomic.t;
  hist_spans : (Value.t array option * Value.t array option) Itbl.t;
  fresh_spans : (Value.t array option * Value.t array option) Itbl.t;
      (* [reconcile]'s scratch *)
}

type stats = {
  fallbacks : int;
  dirty_cells : int;
  dirty_emptied : bool;
  verdicts : int;
}

let at a i = if i >= 0 && i < Array.length a then a.(i) else 0

let create analyzer catalog =
  let ntables = Analyzer.table_count analyzer in
  {
    analyzer;
    catalog;
    facts = Analyzer.catalog_facts analyzer catalog;
    infos = Array.make ntables None;
    known = Array.make ntables false;
    rows = Itbl.create 16;
    cells = Itbl.create 16;
    col_marks = Array.make (Analyzer.column_count analyzer) 0;
    wide = Itbl.create 8;
    tab_marks = Array.make ntables 0;
    marked = 0;
    version = 0;
    grown = 0;
    history_side = false;
    verdicts = Itbl.create 16;
    computed = 0;
    settled = 0;
    first_empty = max_int;
    ever_dirty = false;
    fallbacks = Atomic.make 0;
    hist_spans = Itbl.create 8;
    fresh_spans = Itbl.create 8;
  }

(* The table's facts are the analyzer's, shared by every question of
   the catalog's epoch; only the dirty rows are the question's. *)
let describe t tid name =
  Option.map
    (fun st ->
      let f = Analyzer.table_facts t.analyzer t.facts tid name st in
      {
        tid;
        schema = f.Analyzer.tf_schema;
        layout = f.Analyzer.tf_layout;
        guard = f.Analyzer.tf_guard;
        triggered = f.Analyzer.tf_triggered;
        dirty_rows = Itbl.create 4;
      })
    (Catalog.table t.catalog name)

(* A table no analysed entry names a column of has no info: no member
   reads or writes it. *)
let table_info t name =
  let tid = Analyzer.table_id t.analyzer name in
  if tid < 0 || tid >= Array.length t.known then None
  else begin
    if not t.known.(tid) then begin
      t.infos.(tid) <- describe t tid name;
      t.known.(tid) <- true
    end;
    t.infos.(tid)
  end

(* ---- the dirty set ---- *)

let count tbl k d =
  let n = Option.value (Itbl.find_opt tbl k) ~default:0 + d in
  if n = 0 then Itbl.remove tbl k else Itbl.replace tbl k n;
  n

let is_empty t = Itbl.length t.cells = 0 && Itbl.length t.wide = 0

(* A mark is [2 * key + 1] for a row mark, [2 * key] for a column
   mark. *)
let add t m d =
  let key = m lsr 1 and owner = owner_of_cell (m lsr 1) in
  let n =
    if m land 1 = 1 then begin
      t.tab_marks.(owner) <- t.tab_marks.(owner) + d;
      count t.wide key d
    end
    else begin
      t.col_marks.(owner) <- t.col_marks.(owner) + d;
      count t.cells key d
    end
  in
  if d > 0 && n = 1 then t.marked <- t.marked + 1

let mark t m = add t m 1
let unmark t m = add t m (-1)

(* Has column [c] a mark at any key? *)
let dirty_column t c =
  at t.col_marks c > 0 || at t.tab_marks (Analyzer.column_table t.analyzer c) > 0

(* Does a read of column [c] at row key [k] (0: any row) meet a dirty
   cell? A mark at key 0 is in every row. *)
let meets t c k =
  (at t.col_marks c > 0
  && (k = 0 || Itbl.mem t.cells (cell c k) || Itbl.mem t.cells (cell c 0)))
  ||
  let tid = Analyzer.column_table t.analyzer c in
  at t.tab_marks tid > 0
  && (k = 0 || Itbl.mem t.wide (cell tid k) || Itbl.mem t.wide (cell tid 0))

let same_image a b =
  match (a, b) with
  | None, None -> true
  | Some a, Some b ->
      Array.length a = Array.length b && Array.for_all2 Value.equal a b
  | _ -> false

(* The marks of a row whose two images differ: a column mark per
   differing column when the row exists on both sides under one row key;
   otherwise a row mark under each side's key, since a reader keyed there
   sees the row appear, vanish or move. *)
let row_marks info hist cur =
  let lay = info.layout in
  let row_mark img = (2 * cell info.tid (lay.Analyzer.key img)) + 1 in
  match (hist, cur) with
  | Some h, Some c when Array.length h = Array.length c ->
      let k = lay.Analyzer.key h and d = lay.Analyzer.dim0 in
      (* the key is the first dimension's: one value, one key *)
      if
        d >= 0
        && d < Array.length h
        && (not (Value.equal h.(d) c.(d)))
        && k <> lay.Analyzer.key c
      then [ row_mark h; row_mark c ]
      else begin
        let acc = ref [] in
        Array.iteri
          (fun p v ->
            if not (Value.equal v c.(p)) then begin
              let col = lay.Analyzer.column p in
              if col >= 0 then acc := 2 * cell col k :: !acc
            end)
          h;
        !acc
      end
  | h, c ->
      List.map row_mark (Option.to_list h) @ List.map row_mark (Option.to_list c)

let set_row t key info hist cur =
  (match Itbl.find_opt t.rows key with
  | Some old ->
      List.iter (unmark t) old.marks;
      Itbl.remove t.rows key;
      Itbl.remove info.dirty_rows key;
      t.version <- t.version + 1
  | None -> ());
  if not (same_image hist cur) then begin
    t.version <- t.version + 1;
    t.grown <- t.grown + 1;
    let marks = row_marks info hist cur in
    List.iter (mark t) marks;
    let row = { table = info; hist; cur; marks } in
    Itbl.replace t.rows key row;
    Itbl.replace info.dirty_rows key row
  end

(* Per row of a base table a journal (newest first) touches: its first
   before-image and its last after-image, into [h]. *)
let spans t h journal =
  let note tb r before after =
    match table_info t tb with
    | None -> ()
    | Some info -> (
        let key = row_key info.tid r in
        match Itbl.find_opt h key with
        | None -> Itbl.replace h key (before, after)
        | Some (_, last) -> Itbl.replace h key (before, last))
  in
  (* the first record seen holds the last after-image *)
  List.iter
    (function
      | Log.U_row_insert (tb, r, img) -> note tb r None (Some img)
      | Log.U_row_update (tb, r, b, a) -> note tb r (Some b) (Some a)
      | Log.U_row_delete (tb, r, img) -> note tb r (Some img) None
      | _ -> ())
    journal

(* Does the journal touch a row of the set? *)
let names_dirty t journal =
  Itbl.length t.rows > 0
  && List.exists
       (function
         | Log.U_row_insert (tb, r, _)
         | Log.U_row_update (tb, r, _, _)
         | Log.U_row_delete (tb, r, _) ->
             let tid = Analyzer.table_id t.analyzer tb in
             tid >= 0 && Itbl.mem t.rows (row_key tid r)
         | _ -> false)
       journal

(* Carry every row [hist] (history's journal of a statement) or [fresh]
   (the replay's) touches from before the statement to after it: a row
   outside the set is clean, so either journal's before-image is both
   sides' value. [redone]: the statement was redone, so a clean row stays
   clean and only rows already in the set change; its fresh journal names
   the rows its historical one does. *)
let reconcile t ~redone ~hist ~fresh =
  if not (redone && not (names_dirty t fresh)) then begin
    let h = t.hist_spans and n = t.fresh_spans in
    spans t h hist;
    spans t n fresh;
    let visit key =
      let st = Itbl.find_opt t.rows key in
      let hs = Itbl.find_opt h key and ns = Itbl.find_opt n key in
      let hist_before, cur_before =
        match (st, hs, ns) with
        | Some s, _, _ -> (s.hist, s.cur)
        | None, Some (b, _), Some (b', _) -> (b, b')
        | None, Some (b, _), None | None, None, Some (b, _) -> (b, b)
        | None, None, None -> (None, None)
      in
      let info =
        match st with
        | Some s -> s.table
        | None -> Option.get t.infos.(tid_of_row key)
      in
      set_row t key info
        (match hs with Some (_, a) -> a | None -> hist_before)
        (match ns with Some (_, a) -> a | None -> cur_before)
    in
    Itbl.iter (fun key _ -> visit key) h;
    Itbl.iter (fun key _ -> if not (Itbl.mem h key) then visit key) n;
    Itbl.reset h;
    Itbl.reset n
  end

let seed t journal =
  reconcile t ~redone:false ~hist:journal ~fresh:[];
  t.history_side <- true;
  if not (is_empty t) then t.ever_dirty <- true

let rolled_back t = t.history_side <- false

let settle t ~redone ~hist ~fresh =
  reconcile t ~redone ~hist ~fresh;
  t.settled <- t.settled + 1;
  if not (is_empty t) then t.ever_dirty <- true
  else if t.ever_dirty && t.first_empty = max_int then
    t.first_empty <- t.settled

(* ---- the decision ---- *)

type kind = Insert | Update of bool | Delete of bool (* has a WHERE *)

let target = function
  | Ast.Insert { table; _ } -> Some (table, Insert)
  | Ast.Update { table; where; _ } -> Some (table, Update (where <> None))
  | Ast.Delete { table; where } -> Some (table, Delete (where <> None))
  | _ -> None

let rec has_subquery = function
  | Ast.Subselect _ | Ast.Exists _ -> true
  | Ast.Lit _ | Ast.Col _ | Ast.Var _ -> false
  | Ast.Binop (_, a, b) -> has_subquery a || has_subquery b
  | Ast.Unop (_, a) | Ast.Is_null (a, _) -> has_subquery a
  | Ast.Between (a, b, c) -> has_subquery a || has_subquery b || has_subquery c
  | Ast.In_list (a, l) | Ast.Fun_call (_, (a :: l)) ->
      has_subquery a || List.exists has_subquery l
  | Ast.Fun_call (_, []) -> false

(* How a statement reads the rows of its own table, where the row image
   alone decides it. *)
type scope =
  | Selected of (Value.t array -> bool) Lazy.t
      (* an UPDATE or DELETE whose assigned values read no other row:
         the rows its WHERE selects, compiled when a row is first tested *)
  | Uniqueness
      (* an INSERT of values that read no table: only its PRIMARY KEY and
         UNIQUE checks read other rows *)

let scope_of info stmt =
  let selected = function
    | None -> Some (Selected (Lazy.from_val (fun _ -> true)))
    | Some w when has_subquery w -> None
    | Some w -> Some (Selected (lazy (Engine.row_filter info.schema w)))
  in
  match stmt with
  | Ast.Update { assigns; where; _ }
    when not (List.exists (fun (_, e) -> has_subquery e) assigns) ->
      selected where
  | Ast.Delete { where; _ } -> selected where
  | Ast.Insert { values; _ } when not (List.exists (List.exists has_subquery) values)
    ->
      Some Uniqueness
  | _ -> None

(* A dirty row's two images at the current point of the replay: the row
   as the catalog holds it now, and that row with the columns where
   [hist] and [cur] differ at the other side's values. The catalog holds
   the replay's side, or history's while the seeded rows' rollback is
   deferred. [hist] and [cur] were recorded when the row last settled; a
   non-member since may have rewritten its clean columns on both
   sides. *)
let images_now t storage key r =
  let now = Option.bind storage (fun st -> Storage.get st (rowid_of_row key)) in
  let other held other =
    match (held, other, now) with
    | Some h, Some o, Some n
      when Array.length h = Array.length o && Array.length o = Array.length n ->
        Some (Array.mapi (fun p v -> if Value.equal h.(p) o.(p) then v else o.(p)) n)
    | _, o, _ -> o
  in
  if t.history_side then (now, other r.hist r.cur) else (other r.cur r.hist, now)

(* Does the statement read a dirty row of its own table — one its WHERE
   selects on either side that appeared, vanished or moved, or whose
   differing columns it reads; or, for an INSERT, one whose key or UNIQUE
   value equals an inserted row's on either side? Both sides are the
   row's images at this point ({!images_now}). *)
let reads_dirty_row t idx info scope hist =
  let storage = Catalog.table t.catalog info.schema.Schema.tbl_name in
  let exists p =
    try
      Itbl.iter
        (fun key r ->
          let h, c = images_now t storage key r in
          if p r h c then raise_notrace Exit)
        info.dirty_rows;
      false
    with Exit -> true
  in
  Itbl.length info.dirty_rows > 0
  &&
  match scope with
  | Selected p ->
      let selects = function None -> false | Some img -> Lazy.force p img in
      let reads c =
        Analyzer.exists_cell t.analyzer idx ~write:false
          ~column:(fun c' -> c' = c)
          (fun _ _ -> true)
      in
      exists (fun r h c ->
          (selects h || selects c)
          && List.exists
               (fun m -> m land 1 = 1 || reads (owner_of_cell (m lsr 1)))
               r.marks)
  | Uniqueness ->
      let pk = info.layout.Analyzer.pk and uniques = info.layout.Analyzer.uniques in
      let equal a b p =
        p < Array.length a && p < Array.length b && Value.equal_sql a.(p) b.(p)
      in
      let collides ins = function
        | None -> false
        | Some img ->
            (pk <> [] && List.for_all (equal ins img) pk)
            || List.exists (equal ins img) uniques
      in
      let inserted =
        List.filter_map
          (function
            | Log.U_row_insert (tb, _, img)
              when String.equal tb info.schema.Schema.tbl_name ->
                Some img
            | _ -> None)
          hist
      in
      exists (fun _ h c ->
          List.exists (fun ins -> collides ins h || collides ins c) inserted)

(* Does member [idx] read a dirty cell? Cells first, by their keys: a
   row of its own table is dirty for the statement only if a cell it
   reads there is, so the row-by-row test runs only then. *)
let reads_dirty t idx info kind stmt hist =
  let a = t.analyzer in
  let own_hit = ref false in
  let column = dirty_column t in
  let other_hit =
    Analyzer.exists_cell a idx ~write:false ~column (fun c k ->
        meets t c k
        &&
        if Analyzer.column_table a c = info.tid then begin
          own_hit := true;
          false
        end
        else true)
  in
  (* the constraint checks read the PRIMARY KEY and UNIQUE columns *)
  let guarded () =
    info.guard <> []
    && Analyzer.exists_cell a idx ~write:true
         ~column:(fun c -> List.mem_assoc c info.guard && column c)
         (fun c k -> meets t c (if List.assoc c info.guard then k else 0))
  in
  let by_rows coarse =
    coarse
    &&
    match scope_of info stmt with
    | Some scope -> reads_dirty_row t idx info scope hist
    | None -> true
  in
  (* without WHERE an UPDATE or DELETE visits every row *)
  let every_row where =
    !own_hit
    || (not where)
       && Analyzer.exists_cell a idx ~write:true ~column (fun c _ -> meets t c 0)
  in
  other_hit
  ||
  match kind with
  | Insert -> (
      match scope_of info stmt with
      | Some scope -> guarded () && reads_dirty_row t idx info scope hist
      | None -> !own_hit || guarded ())
  | Delete where -> by_rows (every_row where)
  | Update where -> by_rows (every_row where) || guarded ()

(* A verdict holds while the set does not change, and a clean one while
   no row enters it or changes in it: a row that leaves the set takes
   only reads away. *)
let clean t idx stmt hist =
  match target stmt with
  | None -> false
  | Some (table, kind) -> (
      match table_info t table with
      | None -> false
      | Some info ->
          (not info.triggered)
          && (is_empty t
             ||
             match Itbl.find_opt t.verdicts idx with
             | Some (v, g, ok) when v = t.version || (ok && g = t.grown) -> ok
             | _ ->
                 let ok = not (reads_dirty t idx info kind stmt hist) in
                 t.computed <- t.computed + 1;
                 Itbl.replace t.verdicts idx (t.version, t.grown, ok);
                 ok))

(* The closure reads nothing of [t] but its fallback counter, so it may
   run on any domain, and later, over a copy of the replay state. *)
let reenactment (t : t) stmt hist =
  let fallback () =
    Atomic.incr t.fallbacks;
    None
  in
  match target stmt with
  | None -> fun _ -> fallback ()
  | Some (table, _) ->
      fun cat ->
        match Catalog.table cat table with
        | None -> fallback ()
        | Some st ->
            let fits = ref true in
            (* a plain statement's rows are all of its own table *)
            let check tb r present =
              if not (String.equal tb table && Storage.mem st r = present) then
                fits := false
            in
            List.iter
              (function
                | Log.U_row_insert (tb, r, _) -> check tb r false
                | Log.U_row_update (tb, r, _, _) | Log.U_row_delete (tb, r, _) ->
                    check tb r true
                | Log.U_auto_value _ -> ()
                | _ -> fits := false)
              hist;
            if not !fits then fallback ()
            else
              (* its journal lists its rows in the order its execution
                 visits them here too: they sit at history's rowids *)
              let assigned =
                match stmt with
                | Ast.Update { assigns; _ } ->
                    List.filter_map (fun (c, _) -> Storage.column_index st c) assigns
                | _ -> []
              in
              Some (fun () -> Log.apply_redo ~assigned cat hist)

(* With the set empty, [clean] holds for such a member; its reenactment
   writes history's images at history's rowids, and a redone statement
   leaves a clean row clean. *)
let quiet t stmt hist =
  match target stmt with
  | None -> false
  | Some (table, _) -> (
      match table_info t table with
      | Some info when not info.triggered ->
          List.for_all
            (function
              | Log.U_row_insert (tb, _, _)
              | Log.U_row_update (tb, _, _, _)
              | Log.U_row_delete (tb, _, _)
              | Log.U_auto_value (tb, _) ->
                  String.equal tb table
              | _ -> false)
            hist
      | _ -> false)

let repeats t idx stmt hist =
  quiet t stmt hist
  && (is_empty t || ((not (names_dirty t hist)) && clean t idx stmt hist))

let grown t = t.grown

let replay_rows t =
  Array.fold_right
    (fun info acc ->
      match info with
      | Some info when Itbl.length info.dirty_rows > 0 ->
          let name = info.schema.Schema.tbl_name in
          let st = Catalog.table t.catalog name in
          let rows =
            Itbl.fold
              (fun key r acc -> (rowid_of_row key, snd (images_now t st key r)) :: acc)
              info.dirty_rows []
          in
          (name, List.sort (fun (a, _) (b, _) -> Int.compare a b) rows) :: acc
      | _ -> acc)
    t.infos []

let stats (t : t) =
  {
    fallbacks = Atomic.get t.fallbacks;
    dirty_cells = t.marked;
    dirty_emptied = t.first_empty < t.settled;
    verdicts = t.computed;
  }
