let golden = 0x9E3779B97F4A7C15L

let finalize z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let mix2 a b = finalize (Int64.add (Int64.mul a golden) b)
