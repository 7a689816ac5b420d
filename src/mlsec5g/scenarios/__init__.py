"""Six 5G case studies: data generation, ingestion, and end-to-end drivers."""
