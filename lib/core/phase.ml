(** The five generic phases of the abstract replication protocol
    (paper §2.2, Figure 1). *)

type t =
  | Request  (** RE: the client submits an operation *)
  | Server_coordination  (** SC: replicas synchronise/order the operation *)
  | Execution  (** EX: the operation is executed *)
  | Agreement_coordination  (** AC: replicas agree on the result *)
  | Response  (** END: the outcome is transmitted back to the client *)

let all =
  [ Request; Server_coordination; Execution; Agreement_coordination; Response ]

let code = function
  | Request -> "RE"
  | Server_coordination -> "SC"
  | Execution -> "EX"
  | Agreement_coordination -> "AC"
  | Response -> "END"

let long_name = function
  | Request -> "Client Request"
  | Server_coordination -> "Server Coordination"
  | Execution -> "Execution"
  | Agreement_coordination -> "Agreement Coordination"
  | Response -> "Client Response"

let of_code = function
  | "RE" -> Some Request
  | "SC" -> Some Server_coordination
  | "EX" -> Some Execution
  | "AC" -> Some Agreement_coordination
  | "END" -> Some Response
  | _ -> None

let equal = Stdlib.( = )
let pp ppf t = Format.pp_print_string ppf (code t)

let pp_sequence ppf seq =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.fprintf ppf " ")
    pp ppf seq
