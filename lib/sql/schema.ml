type column = {
  col_name : string;
  col_ty : Value.ty;
  primary_key : bool;
  auto_increment : bool;
  not_null : bool;
  unique : bool;
  references : (string * string) option;
}

let column ?(primary_key = false) ?(auto_increment = false) ?(not_null = false)
    ?(unique = false) ?references col_name col_ty =
  { col_name; col_ty; primary_key; auto_increment; not_null; unique; references }

type table = { tbl_name : string; tbl_columns : column list }

let table tbl_name tbl_columns = { tbl_name; tbl_columns }

let column_index t name =
  let rec find i = function
    | [] -> None
    | c :: rest -> if String.equal c.col_name name then Some i else find (i + 1) rest
  in
  find 0 t.tbl_columns

let column_names t = List.map (fun c -> c.col_name) t.tbl_columns

let primary_key_columns t =
  List.filter_map
    (fun c -> if c.primary_key then Some c.col_name else None)
    t.tbl_columns

let unique_columns t =
  List.filter_map
    (fun c -> if c.unique && not c.primary_key then Some c.col_name else None)
    t.tbl_columns

let auto_increment_column t =
  List.find_map
    (fun c -> if c.auto_increment then Some c.col_name else None)
    t.tbl_columns

let foreign_keys t =
  List.filter_map
    (fun c ->
      match c.references with
      | Some (ft, fc) -> Some (c.col_name, ft, fc)
      | None -> None)
    t.tbl_columns

let qualified tbl col = tbl ^ "." ^ col

let schema_column name = "_S." ^ name
