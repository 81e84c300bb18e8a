(* [high.(o)] is one more than the highest seq recorded from origin [o];
   [holes] holds the seqs below it that have not arrived yet, keyed by
   [seq * nodes + origin]. A seq is fresh iff it is at or above [high] or
   in [holes]. *)
type t = {
  nodes : int;
  high : int array;
  holes : unit Int_table.t;
  mutable count : int;
}

let create ~nodes =
  { nodes; high = Array.make nodes 0; holes = Int_table.create 16; count = 0 }

let fresh t ~origin ~seq =
  let high = t.high.(origin) in
  let fresh =
    if seq >= high then begin
      for s = high to seq - 1 do
        Int_table.replace t.holes ((s * t.nodes) + origin) ()
      done;
      t.high.(origin) <- seq + 1;
      true
    end
    else begin
      let key = (seq * t.nodes) + origin in
      Int_table.mem t.holes key
      && begin
           Int_table.remove t.holes key;
           true
         end
    end
  in
  if fresh then t.count <- t.count + 1;
  fresh

let count t = t.count
