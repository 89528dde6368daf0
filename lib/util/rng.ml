type t = { mutable state : int64 }

let create seed = { state = Int64.of_int seed }

(* SplitMix64: Steele, Lea, Flood (2014). *)
let next64 g =
  g.state <- Int64.add g.state Hash64.golden;
  Hash64.finalize g.state

let bits g = Int64.to_int (Int64.shift_right_logical (next64 g) 2)

let int g n =
  if n <= 0 then invalid_arg "Rng.int";
  bits g mod n

let bool g = Int64.logand (next64 g) 1L = 1L

let float g =
  let x = Int64.to_int (Int64.shift_right_logical (next64 g) 11) in
  float_of_int x /. 9007199254740992.0 (* 2^53 *)

let split g = { state = next64 g }
