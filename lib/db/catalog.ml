open Uv_sql

type procedure = {
  proc_name : string;
  proc_params : (string * Value.ty) list;
  proc_label : string option;
  proc_body : Ast.pstmt list;
}

type trigger = {
  trig_name : string;
  trig_timing : Ast.trigger_timing;
  trig_event : Ast.trigger_event;
  trig_table : string;
  trig_body : Ast.pstmt list;
}

type t = {
  tbls : (string, Storage.t) Hashtbl.t;
  views : (string, Ast.select) Hashtbl.t;
  procs : (string, procedure) Hashtbl.t;
  trigs : (string, trigger) Hashtbl.t;
  idxs : (string, string * string list) Hashtbl.t;
  (* moved on whenever the object namespace changes (table/view/proc/
     trigger/index added, removed or renamed) — a cheap staleness check
     for caches keyed on schema shape, e.g. the what-if session's
     memoized analyzer and the analyzer's catalog facts *)
  mutable epoch : int;
}

let create () =
  {
    tbls = Hashtbl.create 16;
    views = Hashtbl.create 8;
    procs = Hashtbl.create 8;
    trigs = Hashtbl.create 8;
    idxs = Hashtbl.create 8;
    epoch = 0;
  }

let epoch t = t.epoch

let tables t =
  Hashtbl.fold (fun name tbl acc -> (name, tbl) :: acc) t.tbls []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let table t name = Hashtbl.find_opt t.tbls name
let view t name = Hashtbl.find_opt t.views name
let procedure t name = Hashtbl.find_opt t.procs name

let triggers_for t table event =
  Hashtbl.fold
    (fun _ trig acc ->
      if String.equal trig.trig_table table && trig.trig_event = event then
        trig :: acc
      else acc)
    t.trigs []
  |> List.sort (fun a b -> compare a.trig_name b.trig_name)

let trigger_tables t =
  Hashtbl.fold (fun _ trig acc -> trig.trig_table :: acc) t.trigs []
  |> List.sort_uniq compare

(* Epochs are drawn from one counter for every catalog, so two
   catalogs share an epoch only when one was copied from the other and
   neither has moved since: equal epochs, equal objects. *)
let epochs = Atomic.make 0
let bump t = t.epoch <- Atomic.fetch_and_add epochs 1 + 1

let add_table t tbl =
  bump t;
  Hashtbl.replace t.tbls (Storage.name tbl) tbl

let remove_table t name =
  bump t;
  Hashtbl.remove t.tbls name

let add_view t name sel =
  bump t;
  Hashtbl.replace t.views name sel

let remove_view t name =
  bump t;
  Hashtbl.remove t.views name

let add_procedure t p =
  bump t;
  Hashtbl.replace t.procs p.proc_name p

let remove_procedure t name =
  bump t;
  Hashtbl.remove t.procs name

let add_trigger t trig =
  bump t;
  Hashtbl.replace t.trigs trig.trig_name trig

let remove_trigger t name =
  bump t;
  Hashtbl.remove t.trigs name

let add_index t name target =
  bump t;
  Hashtbl.replace t.idxs name target

let indexes t = Hashtbl.fold (fun name target acc -> (name, target) :: acc) t.idxs []

let remove_index t name =
  bump t;
  Hashtbl.remove t.idxs name

let rename_table t old_name new_name =
  match Hashtbl.find_opt t.tbls old_name with
  | None -> ()
  | Some tbl ->
      bump t;
      Hashtbl.remove t.tbls old_name;
      let sch = Storage.schema tbl in
      Storage.set_schema tbl { sch with Schema.tbl_name = new_name } (fun r -> r);
      Hashtbl.replace t.tbls new_name tbl

let view_names t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.views [] |> List.sort compare

let procedure_names t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.procs [] |> List.sort compare

let snapshot t =
  let copy = create () in
  Hashtbl.iter (fun name tbl -> Hashtbl.replace copy.tbls name (Storage.copy tbl)) t.tbls;
  Hashtbl.iter (Hashtbl.replace copy.views) t.views;
  Hashtbl.iter (Hashtbl.replace copy.procs) t.procs;
  Hashtbl.iter (Hashtbl.replace copy.trigs) t.trigs;
  Hashtbl.iter (Hashtbl.replace copy.idxs) t.idxs;
  copy.epoch <- t.epoch;
  copy

let snapshot_tables t names =
  let copy = create () in
  List.iter
    (fun name ->
      match Hashtbl.find_opt t.tbls name with
      | Some tbl -> Hashtbl.replace copy.tbls name (Storage.copy tbl)
      | None -> ())
    names;
  Hashtbl.iter (Hashtbl.replace copy.views) t.views;
  Hashtbl.iter (Hashtbl.replace copy.procs) t.procs;
  Hashtbl.iter (Hashtbl.replace copy.trigs) t.trigs;
  Hashtbl.iter (Hashtbl.replace copy.idxs) t.idxs;
  copy.epoch <- t.epoch;
  copy

let copy_objects_into t ~into =
  let sync src dst =
    Hashtbl.reset dst;
    Hashtbl.iter (Hashtbl.replace dst) src
  in
  bump into;
  sync t.views into.views;
  sync t.procs into.procs;
  sync t.trigs into.trigs;
  sync t.idxs into.idxs

let objects_signature t =
  let sorted_keys tbl = List.sort compare (Hashtbl.fold (fun k _ a -> k :: a) tbl []) in
  let buf = Buffer.create 256 in
  List.iter
    (fun name ->
      match Hashtbl.find_opt t.views name with
      | Some q ->
          Buffer.add_string buf ("V:" ^ name ^ "=" ^ Printer.select q ^ "\n")
      | None -> ())
    (sorted_keys t.views);
  List.iter
    (fun name ->
      match Hashtbl.find_opt t.procs name with
      | Some p ->
          Buffer.add_string buf
            ("P:" ^ name ^ "="
            ^ Printer.stmt
                (Ast.Create_procedure
                   {
                     name = p.proc_name;
                     params = p.proc_params;
                     label = p.proc_label;
                     body = p.proc_body;
                   })
            ^ "\n")
      | None -> ())
    (sorted_keys t.procs);
  List.iter
    (fun name ->
      match Hashtbl.find_opt t.trigs name with
      | Some tr ->
          Buffer.add_string buf
            ("T:" ^ name ^ "="
            ^ Printer.stmt
                (Ast.Create_trigger
                   {
                     name = tr.trig_name;
                     timing = tr.trig_timing;
                     event = tr.trig_event;
                     table = tr.trig_table;
                     body = tr.trig_body;
                   })
            ^ "\n")
      | None -> ())
    (sorted_keys t.trigs);
  List.iter
    (fun name ->
      match Hashtbl.find_opt t.idxs name with
      | Some (tbl, cols) ->
          Buffer.add_string buf
            ("I:" ^ name ^ "=" ^ tbl ^ "(" ^ String.concat "," cols ^ ")\n")
      | None -> ())
    (sorted_keys t.idxs);
  Buffer.contents buf

let copy_tables_into t ~into names =
  List.iter
    (fun name ->
      match Hashtbl.find_opt t.tbls name with
      | Some tbl -> Hashtbl.replace into.tbls name (Storage.copy tbl)
      | None -> Hashtbl.remove into.tbls name)
    names

let restore t ~from =
  let fresh = snapshot from in
  Hashtbl.reset t.tbls;
  Hashtbl.reset t.views;
  Hashtbl.reset t.procs;
  Hashtbl.reset t.trigs;
  Hashtbl.reset t.idxs;
  Hashtbl.iter (Hashtbl.replace t.tbls) fresh.tbls;
  Hashtbl.iter (Hashtbl.replace t.views) fresh.views;
  Hashtbl.iter (Hashtbl.replace t.procs) fresh.procs;
  Hashtbl.iter (Hashtbl.replace t.trigs) fresh.trigs;
  Hashtbl.iter (Hashtbl.replace t.idxs) fresh.idxs;
  bump t

let db_hash t =
  tables t |> List.map (fun (_, tbl) -> Storage.hash tbl) |> Uv_util.Table_hash.combine

let tables_hash t names =
  List.sort_uniq compare names
  |> List.filter_map (fun name -> Option.map Storage.hash (table t name))
  |> Uv_util.Table_hash.combine

let memory_bytes t =
  List.fold_left (fun acc (_, tbl) -> acc + Storage.memory_bytes tbl) 1024 (tables t)
