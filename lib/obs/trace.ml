let reservoir_cap = 4096

type event = {
  ev_name : string;
  ev_cat : string;
  ev_tid : int;
  ev_start : float; (* absolute Clock.now_ms *)
  ev_dur : float; (* ms; 0 with ev_instant = true for markers *)
  ev_instant : bool;
  ev_args : (string * Json.t) list;
}

type hist = {
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
  h_samples : float array; (* bounded reservoir, ring-overwritten *)
}

type state = {
  mutex : Mutex.t;
  origin : float;
  mutable events : event list; (* newest first *)
  counters : (string, int ref) Hashtbl.t;
  hists : (string, hist) Hashtbl.t;
}

type t = Off | On of state

type span =
  | No_span
  | Open of { sp_name : string; sp_cat : string; sp_tid : int; sp_start : float;
              sp_args : (string * Json.t) list }

let disabled = Off

let create () =
  On
    {
      mutex = Mutex.create ();
      origin = Uv_util.Clock.now_ms ();
      events = [];
      counters = Hashtbl.create 16;
      hists = Hashtbl.create 16;
    }

let enabled = function Off -> false | On _ -> true

let tid () = (Domain.self () :> int)

let locked st f =
  Mutex.lock st.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock st.mutex) f

let start t ?(cat = "uv") ?(args = []) name =
  match t with
  | Off -> No_span
  | On _ ->
      Open
        { sp_name = name; sp_cat = cat; sp_tid = tid (); sp_start = Uv_util.Clock.now_ms ();
          sp_args = args }

let finish t ?(args = []) span =
  match (t, span) with
  | Off, _ | _, No_span -> ()
  | On st, Open sp ->
      let now = Uv_util.Clock.now_ms () in
      let ev =
        {
          ev_name = sp.sp_name;
          ev_cat = sp.sp_cat;
          ev_tid = sp.sp_tid;
          ev_start = sp.sp_start;
          ev_dur = Float.max 0.0 (now -. sp.sp_start);
          ev_instant = false;
          ev_args = sp.sp_args @ args;
        }
      in
      locked st (fun () -> st.events <- ev :: st.events)

let with_span t ?cat ?args name f =
  match t with
  | Off -> f ()
  | On _ ->
      let sp = start t ?cat ?args name in
      Fun.protect ~finally:(fun () -> finish t sp) f

let instant t ?(args = []) name =
  match t with
  | Off -> ()
  | On st ->
      let ev =
        {
          ev_name = name;
          ev_cat = "uv";
          ev_tid = tid ();
          ev_start = Uv_util.Clock.now_ms ();
          ev_dur = 0.0;
          ev_instant = true;
          ev_args = args;
        }
      in
      locked st (fun () -> st.events <- ev :: st.events)

let incr t ?(by = 1) name =
  match t with
  | Off -> ()
  | On st ->
      locked st (fun () ->
          match Hashtbl.find_opt st.counters name with
          | Some r -> r := !r + by
          | None -> Hashtbl.add st.counters name (ref by))

let observe t name v =
  match t with
  | Off -> ()
  | On st ->
      locked st (fun () ->
          let h =
            match Hashtbl.find_opt st.hists name with
            | Some h -> h
            | None ->
                let h =
                  { h_count = 0; h_sum = 0.0; h_min = infinity; h_max = neg_infinity;
                    h_samples = Array.make reservoir_cap 0.0 }
                in
                Hashtbl.add st.hists name h;
                h
          in
          h.h_samples.(h.h_count mod reservoir_cap) <- v;
          h.h_count <- h.h_count + 1;
          h.h_sum <- h.h_sum +. v;
          if v < h.h_min then h.h_min <- v;
          if v > h.h_max then h.h_max <- v)

let counter_value t name =
  match t with
  | Off -> 0
  | On st ->
      locked st (fun () ->
          match Hashtbl.find_opt st.counters name with Some r -> !r | None -> 0)

(* ---------- exporters ---------- *)

let snapshot_events st = locked st (fun () -> List.rev st.events)

let chrome_json t =
  match t with
  | Off -> Json.Obj [ ("traceEvents", Json.List []) ]
  | On st ->
      let events = snapshot_events st in
      let us ms = Float.round (ms *. 1000.0) in
      let tids =
        List.fold_left (fun acc ev -> if List.mem ev.ev_tid acc then acc else ev.ev_tid :: acc)
          [] events
        |> List.sort compare
      in
      let meta =
        Json.Obj
          [ ("name", Str "process_name"); ("ph", Str "M"); ("pid", Int 1); ("tid", Int 0);
            ("args", Obj [ ("name", Str "ultraverse") ]) ]
        :: List.map
             (fun tid ->
               Json.Obj
                 [ ("name", Str "thread_name"); ("ph", Str "M"); ("pid", Int 1);
                   ("tid", Int tid);
                   ("args", Obj [ ("name", Str (Printf.sprintf "domain-%d" tid)) ]) ])
             tids
      in
      let body =
        List.map
          (fun ev ->
            let common =
              [ ("name", Json.Str ev.ev_name); ("cat", Json.Str ev.ev_cat); ("pid", Json.Int 1);
                ("tid", Json.Int ev.ev_tid);
                ("ts", Json.Float (us (ev.ev_start -. st.origin))) ]
            in
            let shape =
              if ev.ev_instant then [ ("ph", Json.Str "i"); ("s", Json.Str "t") ]
              else [ ("ph", Json.Str "X"); ("dur", Json.Float (us ev.ev_dur)) ]
            in
            let args = if ev.ev_args = [] then [] else [ ("args", Json.Obj ev.ev_args) ] in
            Json.Obj (common @ shape @ args))
          events
      in
      Json.Obj [ ("traceEvents", Json.List (meta @ body)); ("displayTimeUnit", Str "ms") ]

let chrome_string t = Json.to_string (chrome_json t)

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let idx = int_of_float (Float.of_int (n - 1) *. q) in
    sorted.(idx)

let metrics_payload t =
  match t with
  | Off ->
      Json.Obj [ ("counters", Json.Obj []); ("histograms", Json.Obj []); ("spans", Json.Obj []) ]
  | On st ->
      let counters, hists =
        locked st (fun () ->
            ( Hashtbl.fold (fun k r acc -> (k, !r) :: acc) st.counters [],
              Hashtbl.fold
                (fun k h acc ->
                  let stored = min h.h_count reservoir_cap in
                  (k, (h.h_count, h.h_sum, h.h_min, h.h_max, Array.sub h.h_samples 0 stored))
                  :: acc)
                st.hists [] ))
      in
      let events = snapshot_events st in
      let counters_json =
        List.sort compare counters |> List.map (fun (k, v) -> (k, Json.Int v))
      in
      let hists_json =
        List.sort compare hists
        |> List.map (fun (k, (count, sum, mn, mx, samples)) ->
               Array.sort compare samples;
               ( k,
                 Json.Obj
                   [ ("count", Json.Int count); ("sum_ms", Json.Float sum);
                     ("min_ms", Json.Float (if count = 0 then 0.0 else mn));
                     ("max_ms", Json.Float (if count = 0 then 0.0 else mx));
                     ("p50_ms", Json.Float (percentile samples 0.5));
                     ("p95_ms", Json.Float (percentile samples 0.95)) ] ))
      in
      let rollup = Hashtbl.create 16 in
      List.iter
        (fun ev ->
          if not ev.ev_instant then begin
            let count, total, mn, mx =
              match Hashtbl.find_opt rollup ev.ev_name with
              | Some x -> x
              | None -> (0, 0.0, infinity, neg_infinity)
            in
            Hashtbl.replace rollup ev.ev_name
              (count + 1, total +. ev.ev_dur, Float.min mn ev.ev_dur, Float.max mx ev.ev_dur)
          end)
        events;
      let spans_json =
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) rollup []
        |> List.sort compare
        |> List.map (fun (k, (count, total, mn, mx)) ->
               ( k,
                 Json.Obj
                   [ ("count", Json.Int count); ("total_ms", Json.Float total);
                     ("min_ms", Json.Float mn); ("max_ms", Json.Float mx) ] ))
      in
      Json.Obj
        [ ("counters", Json.Obj counters_json); ("histograms", Json.Obj hists_json);
          ("spans", Json.Obj spans_json) ]
