(* Keys are distinct small ints, so the identity is a good hash and needs
   no call into the runtime. *)
include Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash k = k land max_int
end)
