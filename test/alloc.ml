(* Words [f] allocates: in the minor heap, and straight into the major
   heap — where every block over 256 words goes, so a history-length
   array shows only in the second count. Minor words come from
   [Gc.minor_words]: on OCaml 5.1 the minor count of [Gc.counters] takes
   only an eighth of the words in the current minor heap, so it moved by
   up to a minor heap's worth with where minor collections fell. The
   counters are read outside the minor count, so it holds only [f]'s
   own words. *)
let words_of f =
  let _, promoted0, major0 = Gc.counters () in
  let words0 = Gc.minor_words () in
  let r = f () in
  let words1 = Gc.minor_words () in
  let _, promoted1, major1 = Gc.counters () in
  (r, words1 -. words0, major1 -. promoted1 -. (major0 -. promoted0))
