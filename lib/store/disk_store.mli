(** Crash-safe persistent design store: the on-disk second level of
    {!Db_core.Design_cache}.

    Entries are content-addressed by the SHA-256 of the cache key and
    sharded across 256 subdirectories.  Writes are atomic (tmp file in
    the target shard, then [rename]); every entry carries a magic, a
    CRC-32 ({!Db_fault.Ecc.crc32}), a format version and the producing
    compiler version.  Any decode failure — truncation, bit rot, version
    skew, a key mismatch — counts as corrupt, removes the entry, and
    reports a miss, so the caller transparently regenerates; the store
    can never return a wrong design, only a missing one.

    Safe to share one [t] across domains: all state is atomics plus the
    file system, and racing writers of the same key land equivalent
    entries (the generator is deterministic). *)

type t

val format_version : int
(** Bumped whenever the on-disk layout or [Design.t]'s marshalled layout
    changes; entries from another format are counted [version]-corrupt
    and regenerated. *)

val open_store : ?version_salt:string -> ?max_bytes:int -> dir:string -> unit -> t
(** Create/open a store rooted at [dir] (created if missing, classified
    [io-store] error if impossible) and sweep tmp files left by writers
    that died mid-write.  [version_salt] is appended to the compiler
    version stamp — a test hook to provoke version skew without a second
    compiler.  [max_bytes] bounds the store's on-disk size: every
    write-through runs the LRU sweep ({!compact}), so the store converges
    to the bound instead of growing without limit. *)

val lookup : t -> key:string -> Db_core.Design.t option
(** The stored design for this exact cache key, or [None] on a miss or on
    any corrupt/stale entry (which is counted and unlinked). *)

val store : t -> key:string -> Db_core.Design.t -> unit
(** Write-through, atomically.  Transient failures are retried with a
    short jittered backoff; persistent ones are counted
    ([serve.store.write_failed]) and swallowed — losing a cache write
    must never fail the request that already holds its design. *)

val attach : t -> unit
(** Install this store as {!Db_core.Design_cache}'s second level: cache
    misses consult the store before regenerating, and fresh designs are
    written through. *)

val detach : unit -> unit
(** Remove any attached second level. *)

val compact : ?max_bytes:int -> t -> int
(** Size-bounded LRU sweep: while the visible entries total more than
    the bound ([?max_bytes], defaulting to the store's own), unlink the
    least-recently-used ones ([lookup] bumps recency on every hit).
    Returns the eviction count, mirrored to [serve.store.evicted].
    Eviction is loss-free: the generator is deterministic, so an evicted
    design is recomputed bit-identically on its next request.  Fails
    classified ([io-store]) when neither bound exists. *)

val entry_path : t -> key:string -> string
(** Absolute path of the entry for [key] (exists only after a store). *)

val key_id : string -> string
(** SHA-256 hex of a cache key — the entry's content address. *)

val sweep_tmp : t -> int
(** Remove leftover tmp files; returns how many were swept. *)

type stats = {
  st_hits : int;
  st_misses : int;
  st_corrupt : int;  (** torn/bit-rotted/version-skewed entries dropped *)
  st_write_retries : int;  (** jittered-backoff retries of transient write failures *)
  st_write_failures : int;
  st_swept_tmp : int;
  st_evicted : int;  (** entries removed by the LRU sweep *)
}

val stats : t -> stats
(** Counters since [open_store]; mirrored to [Db_obs] as
    [serve.store.hit]/[serve.store.miss]/[serve.store.corrupt]/... *)
